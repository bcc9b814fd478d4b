"""Tests for the inference serving subsystem (repro.serve).

The load-bearing invariants:

* seeded traces — and therefore whole serving reports — are
  deterministic, and CSV round-trips are bit-exact;
* one replica at batch 1 with T threads prices a forward pass exactly
  like the existing threaded ResNet sweep (same breakdowns, same
  accumulation order — equality, not approx);
* batching is sublinear (the shared B panel amortizes), which is the
  entire reason the batcher exists;
* nearest-rank percentile math is exact on tiny samples;
* every enumerated replica x thread placement covers the socket with
  no core double-booked;
* with an active tune cache, serve and the eval ``--use-tuned`` path
  dispatch the same per-layer kernels as the tuned winners.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs as obslib
from repro import tune
from repro.eval.harness import (
    exo_gemm_breakdown,
    machine_context,
    threaded_instance_time_data,
    tuned_layer_breakdown,
)
from repro.isa.machine import CARMEL, MACHINES, machine_by_name
from repro.serve import (
    BatchPolicy,
    ModelExecutor,
    Placement,
    Request,
    enumerate_placements,
    evaluate_configuration,
    load_trace,
    percentile,
    save_trace,
    search_configurations,
    serving_metrics,
    simulate_serving,
    synthetic_trace,
)
from repro.serve.__main__ import main as serve_main
from repro.sim.parallel import replica_topology
from repro.workloads import ConvSpec, resnet50_instances
from repro.workloads.resnet50 import LayerGemm

#: a small layer whose GEMMs are cheap enough to tune inside a test
SMALL_LAYER = LayerGemm(
    layer_id=1,
    layer_numbers=(1,),
    m=16,
    n=48,
    k=4,
    conv=ConvSpec(4, 4, 4, 48, 1, 1),
)


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------


class TestTraffic:
    def test_seeded_trace_is_deterministic(self):
        a = synthetic_trace(50.0, 400.0, seed=7)
        b = synthetic_trace(50.0, 400.0, seed=7)
        assert a == b
        assert a != synthetic_trace(50.0, 400.0, seed=8)

    def test_trace_is_ordered_and_bounded(self):
        trace = synthetic_trace(80.0, 500.0, seed=1)
        assert trace
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 < t <= 500.0 for t in arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))

    def test_csv_round_trip_bit_exact(self, tmp_path):
        trace = synthetic_trace(60.0, 300.0, seed=3)
        path = save_trace(trace, tmp_path / "trace.csv")
        assert load_trace(path) == trace

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            synthetic_trace(0.0, 100.0)
        with pytest.raises(ValueError):
            synthetic_trace(10.0, -1.0)

    def test_duplicate_request_id_rejected_with_row(self, tmp_path):
        """Duplicate identities would corrupt per-request accounting
        (two served records for one request); the load must name the
        offending row instead."""
        bad = tmp_path / "dup.csv"
        bad.write_text(
            "request_id,arrival_ms\n0,1.0\n1,2.0\n0,3.0\n"
        )
        with pytest.raises(ValueError) as err:
            load_trace(bad)
        assert "duplicate request_id 0" in str(err.value)
        assert "line 4" in str(err.value)

    def test_negative_arrival_rejected_with_row(self, tmp_path):
        bad = tmp_path / "neg.csv"
        bad.write_text("request_id,arrival_ms\n0,5.0\n1,-2.5\n")
        with pytest.raises(ValueError) as err:
            load_trace(bad)
        assert "negative arrival_ms" in str(err.value)
        assert "line 3" in str(err.value)
        assert "request_id 1" in str(err.value)


# ---------------------------------------------------------------------------
# Percentile math
# ---------------------------------------------------------------------------


class TestPercentile:
    def test_single_element(self):
        assert percentile([5.0], 0) == 5.0
        assert percentile([5.0], 50) == 5.0
        assert percentile([5.0], 100) == 5.0

    def test_nearest_rank_even_count(self):
        # nearest-rank p50 of four values is the second, not an average
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 75) == 3.0

    def test_extremes(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


# ---------------------------------------------------------------------------
# Batcher
# ---------------------------------------------------------------------------


def _trace(*arrivals):
    return tuple(
        Request(request_id=i, arrival_ms=t)
        for i, t in enumerate(arrivals)
    )


class TestBatcher:
    def test_batch_one_serves_fifo(self):
        result = simulate_serving(
            _trace(0.0, 1.0, 2.0), 1, BatchPolicy(1, 0.0), lambda b: 10.0
        )
        assert [b.size for b in result.batches] == [1, 1, 1]
        assert [s.completion_ms for s in result.served] == [
            10.0,
            20.0,
            30.0,
        ]

    def test_wait_coalesces_full_batch(self):
        """Four arrivals within the wait window form one batch."""
        result = simulate_serving(
            _trace(0.0, 1.0, 2.0, 3.0),
            1,
            BatchPolicy(max_batch=4, max_wait_ms=10.0),
            lambda b: 10.0,
        )
        assert [b.size for b in result.batches] == [4]
        # the batch closes at the 4th arrival, not the wait expiry
        assert result.batches[0].dispatch_ms == 3.0

    def test_wait_expiry_closes_partial_batch(self):
        result = simulate_serving(
            _trace(0.0, 30.0),
            1,
            BatchPolicy(max_batch=4, max_wait_ms=5.0),
            lambda b: 1.0,
        )
        assert [b.size for b in result.batches] == [1, 1]
        assert result.batches[0].dispatch_ms == 5.0

    def test_final_partial_batch_waits_for_the_timer(self):
        """The batcher never peeks at the trace's end: a last batch
        that cannot fill still waits out the head's max_wait."""
        result = simulate_serving(
            _trace(0.0, 2.0),
            1,
            BatchPolicy(max_batch=4, max_wait_ms=10.0),
            lambda b: 1.0,
        )
        assert [b.size for b in result.batches] == [2]
        assert result.batches[0].dispatch_ms == 10.0
        assert [s.latency_ms for s in result.served] == [11.0, 9.0]

    def test_backlogged_replica_drains_queue(self):
        """A replica freeing after the close time batches the backlog."""
        result = simulate_serving(
            _trace(0.0, 1.0, 2.0),
            1,
            BatchPolicy(max_batch=4, max_wait_ms=0.0),
            lambda b: 10.0,
        )
        assert [b.size for b in result.batches] == [1, 2]
        assert result.batches[1].dispatch_ms == 10.0

    def test_replicas_round_robin_by_free_time(self):
        result = simulate_serving(
            _trace(0.0, 1.0, 2.0, 3.0),
            2,
            BatchPolicy(1, 0.0),
            lambda b: 10.0,
        )
        assert {s.replica for s in result.served} == {0, 1}
        # two servers halve the makespan of the serial case
        assert max(s.completion_ms for s in result.served) == 21.0

    def test_metrics_are_consistent(self):
        result = simulate_serving(
            synthetic_trace(100.0, 300.0, seed=5),
            2,
            BatchPolicy(4, 2.0),
            lambda b: 3.0 + b,
        )
        met = serving_metrics(result)
        assert met["requests"] == len(result.served)
        assert met["p50_ms"] <= met["p95_ms"] <= met["p99_ms"]
        assert met["p99_ms"] <= met["max_ms"]
        assert met["throughput_rps"] > 0
        assert met["mean_batch"] >= 1.0

    def test_empty_result_metrics_error_is_actionable(self):
        from repro.serve.batcher import ServingResult

        with pytest.raises(ValueError) as err:
            serving_metrics(ServingResult(served=(), batches=()))
        assert "raise the arrival rate or duration" in str(err.value)


class TestBatcherProperties:
    """Hypothesis invariants of the discrete-event batcher: hold for
    *every* trace/policy/replica-count combination, not just the
    hand-picked scenarios above."""

    @given(
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
        replicas=st.integers(min_value=1, max_value=4),
        max_batch=st.integers(min_value=1, max_value=6),
        max_wait=st.floats(min_value=0.0, max_value=10.0,
                           allow_nan=False, allow_infinity=False),
        service_base=st.floats(min_value=0.1, max_value=15.0,
                               allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_batcher_invariants(
        self, gaps, replicas, max_batch, max_wait, service_base
    ):
        arrivals = []
        t = 0.0
        for gap in gaps:
            t += gap
            arrivals.append(t)
        trace = tuple(
            Request(request_id=i, arrival_ms=a)
            for i, a in enumerate(arrivals)
        )
        policy = BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait)

        def service(b):
            return service_base + 0.5 * b

        result = simulate_serving(trace, replicas, policy, service)
        # every request served exactly once
        assert sorted(s.request.request_id for s in result.served) == list(
            range(len(trace))
        )
        # causality per request: completion >= dispatch >= arrival
        for s in result.served:
            assert s.dispatch_ms >= s.request.arrival_ms
            assert s.completion_ms >= s.dispatch_ms
        # batches respect the cap and account for every request
        assert all(1 <= b.size <= max_batch for b in result.batches)
        assert sum(b.size for b in result.batches) == len(trace)
        # a replica never runs two batches at once
        by_replica: dict = {}
        for b in result.batches:
            by_replica.setdefault(b.replica, []).append(b)
        for batches in by_replica.values():
            batches.sort(key=lambda b: b.dispatch_ms)
            for a, b in zip(batches, batches[1:]):
                assert b.dispatch_ms >= a.dispatch_ms + a.service_ms
        # deterministic under re-run
        assert simulate_serving(trace, replicas, policy, service) == result


# ---------------------------------------------------------------------------
# Replica topology and placement
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_replica_view_scales_socket_share(self):
        view = replica_topology(CARMEL, 2, 4)
        assert view.cores == 4
        assert (
            view.socket_dram_bandwidth_bytes_per_cycle
            == CARMEL.socket_dram_bandwidth_bytes_per_cycle / 2
        )
        # everything the serial timing model reads is untouched
        assert view.caches == CARMEL.caches
        assert view.freq_ghz == CARMEL.freq_ghz

    def test_replica_ensemble_never_exceeds_the_socket(self):
        """Many narrow replicas: aggregate modelled stream bandwidth
        stays within the physical socket (the per-core floor must not
        resurrect bandwidth the split already spent)."""
        for replicas in (2, 4, 5, 8):
            view = replica_topology(CARMEL, replicas, 1)
            aggregate = replicas * view.stream_bandwidth(1)
            assert (
                aggregate
                <= CARMEL.socket_dram_bandwidth_bytes_per_cycle + 1e-9
            )

    def test_oversubscription_rejected(self):
        with pytest.raises(ValueError):
            replica_topology(CARMEL, 4, 4)
        with pytest.raises(ValueError):
            replica_topology(CARMEL, 0, 1)

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_exhaustive_cover_never_double_books_a_core(
        self, machine_name
    ):
        machine = MACHINES[machine_name]
        placements = enumerate_placements(machine)
        assert placements[0] == Placement(1, machine.cores)
        for placement in placements:
            blocks = placement.core_assignment()
            assert len(blocks) == placement.replicas
            flat = [core for block in blocks for core in block]
            assert len(flat) == len(set(flat)) == placement.cores_used
            assert placement.cores_used <= machine.cores
            assert all(0 <= core < machine.cores for core in flat)
            assert all(
                len(block) == placement.threads_per_replica
                for block in blocks
            )

    @pytest.mark.parametrize("machine_name", sorted(MACHINES))
    def test_dominated_idle_core_placements_are_pruned(self, machine_name):
        """On a flat-share machine only the max-replica placement of
        each thread width survives: 5x1/6x1/7x1 on 8 cores can never
        beat 8x1 under the even-bandwidth-share model, so the planner
        must not simulate them.  On a NUMA machine a lower-replica
        placement survives only when its worst-replica bandwidth share
        strictly improves on the max-replica one's."""
        machine = MACHINES[machine_name]
        placements = enumerate_placements(machine)
        if machine.numa_nodes > 1:
            pairs = {(p.replicas, p.threads_per_replica)
                     for p in placements}
            # the worst node stays fully packed whether 7 or 8 width-4
            # replicas run (and likewise 17..31 vs 32 singles), so the
            # equal-share lower-R placements are dominated and pruned
            assert (8, 4) in pairs and (7, 4) not in pairs
            assert (32, 1) in pairs and (17, 1) not in pairs
            assert (3, 10) in pairs  # max-R for width 10: kept
            from repro.sim.parallel import replica_topology as rt

            for p in placements:
                r_max = machine.cores // p.threads_per_replica
                if p.replicas != r_max:
                    kept = rt(machine, p.replicas, p.threads_per_replica)
                    best = rt(machine, r_max, p.threads_per_replica)
                    assert (
                        kept.socket_dram_bandwidth_bytes_per_cycle
                        > best.socket_dram_bandwidth_bytes_per_cycle
                    )
            return
        widths = [p.threads_per_replica for p in placements]
        assert len(widths) == len(set(widths))  # one placement per T
        for p in placements:
            assert p.replicas == machine.cores // p.threads_per_replica
        # the classic dominated trio is gone on an 8-core part
        if machine.cores == 8:
            pairs = {(p.replicas, p.threads_per_replica)
                     for p in placements}
            assert (8, 1) in pairs
            for dominated in ((5, 1), (6, 1), (7, 1), (3, 2)):
                assert dominated not in pairs

    def test_numa_share_grows_when_node_contention_drops(self):
        """Why the NUMA prune compares shares instead of assuming
        domination: at width 10 on numa2s, 2 replicas are less
        node-contended than 3, so the worst replica gets strictly more
        bandwidth — fewer same-width replicas are not always slower."""
        machine = MACHINES["numa2s"]
        two = replica_topology(machine, 2, 10)
        three = replica_topology(machine, 3, 10)
        assert (
            two.socket_dram_bandwidth_bytes_per_cycle
            > three.socket_dram_bandwidth_bytes_per_cycle
        )

    def test_lone_partial_replica_on_numa_machine_is_node_scoped(self):
        """--replicas 1 --threads 10 on numa2s: the block spans nodes
        0-1 of socket 0 only, so the view is that local bandwidth, not
        the whole machine's."""
        machine = MACHINES["numa2s"]
        view = replica_topology(machine, 1, 10)
        assert view.cores == 10
        assert view.sockets == 1 and view.numa_nodes == 1
        node_bw = machine.numa_node_bandwidth_bytes_per_cycle
        assert view.socket_dram_bandwidth_bytes_per_cycle == 2 * node_bw

    def test_numa_replicas_pin_to_their_nodes(self):
        """One replica per NUMA node: every stream stays local, so each
        replica's share is the full node bandwidth — better than the
        flat socket/replicas split the 1-node model would give."""
        machine = MACHINES["numa2s"]
        view = replica_topology(machine, 4, 8)
        assert view.cores == 8
        assert view.socket_dram_bandwidth_bytes_per_cycle == 32.0
        assert view.sockets == 1 and view.numa_nodes == 1
        nodes = Placement(4, 8).numa_assignment(machine)
        assert nodes == ((0,), (1,), (2,), (3,))

    def test_numa_replica_straddling_the_link_pays_the_penalty(self):
        """2 replicas x 10 cores: replica 1's block crosses the socket
        boundary, so its (worst-case) share is link-derated."""
        machine = MACHINES["numa2s"]
        nodes = Placement(2, 10).numa_assignment(machine)
        assert nodes == ((0, 1), (1, 2))  # replica 1 spans both sockets
        view = replica_topology(machine, 2, 10)
        node_bw = machine.numa_node_bandwidth_bytes_per_cycle
        # replica 1: half of shared node 1 plus all of node 2, derated
        expected = (node_bw / 2 + node_bw) / machine.inter_socket_penalty
        assert view.socket_dram_bandwidth_bytes_per_cycle == pytest.approx(
            expected
        )

    def test_numa_split_by_socket_keeps_streams_local(self):
        """2 replicas x 16 cores: one replica per socket, each keeping
        its socket's full bandwidth — the NUMA model's whole point vs
        the flat socket/2 split."""
        machine = MACHINES["numa2s"]
        view = replica_topology(machine, 2, 16)
        assert view.socket_dram_bandwidth_bytes_per_cycle == 64.0

    def test_whole_machine_replica_keeps_the_full_topology(self):
        """The consolidation placement (1 replica, all cores) must see
        the real 2-socket machine so its internal thread partition
        models the socket spill exactly like eval --threads."""
        machine = MACHINES["numa2s"]
        view = replica_topology(machine, 1, machine.cores)
        assert view.sockets == 2 and view.numa_nodes == 4
        assert (
            view.socket_dram_bandwidth_bytes_per_cycle
            == machine.socket_dram_bandwidth_bytes_per_cycle
        )


# ---------------------------------------------------------------------------
# Executor: parity and batching physics
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_batch1_single_replica_matches_threaded_sweep(self):
        """serve(batch=1, 1 replica, T threads) == the threaded ResNet
        sweep, exactly — same breakdowns, same accumulation order."""
        threads = 2
        ctx = machine_context(CARMEL)
        rows = threaded_instance_time_data(
            resnet50_instances(), ctx, (threads,)
        )
        sweep_total_s = rows[-1][f"t{threads}"]
        executor = ModelExecutor(
            CARMEL, model="resnet50", threads=threads, replicas=1
        )
        assert executor.batch_time_ms(1) == sweep_total_s * 1e3

    def test_batching_is_sublinear(self):
        """Doubling the batch less than doubles the pass: the packed B
        panel is shared by the whole batch."""
        executor = ModelExecutor(CARMEL, model="vgg16", threads=2)
        t1 = executor.batch_time_ms(1)
        t2 = executor.batch_time_ms(2)
        assert t1 < t2 < 2 * t1

    @pytest.mark.parametrize("machine_name", ["carmel", "numa2s"])
    def test_batch_memo_is_exact_and_counts_per_layer(self, machine_name):
        """Every batch total equals a fresh per-layer re-sum, on its
        first call and on later ones, and the memo counters read as if
        every call had summed the layers through the layer memo."""
        machine = machine_by_name(machine_name)
        max_batch = 8
        obs = obslib.Obs()
        executor = ModelExecutor(
            machine, model="resnet50", threads=4, replicas=2, obs=obs
        )
        reference = ModelExecutor(
            machine, model="resnet50", threads=4, replicas=2
        )
        calls = [*range(1, max_batch + 1), *range(max_batch, 0, -1), 3]
        seen = set()
        pricings = hits = 0
        for batch in calls:
            resum = 0.0
            for _, layer in reference.instances:
                seconds, _ = reference.layer_time(layer, batch)
                resum += seconds
                key = (layer.layer_id, batch)
                if key in seen:
                    hits += 1
                else:
                    pricings += 1
                    seen.add(key)
            assert executor.batch_time_ms(batch) == resum * 1e3
        counters = obs.metrics.to_json()
        assert counters["serve.layer_pricings"]["value"] == pricings
        assert counters["serve.layer_memo_hits"]["value"] == hits
        assert hits > len(reference.instances) * max_batch

    def test_layer_records_cover_priced_batches(self):
        executor = ModelExecutor(
            CARMEL, model=[(1, SMALL_LAYER)], threads=1
        )
        executor.batch_time_ms(1)
        executor.batch_time_ms(3)
        records = executor.layer_records()
        assert [(r["layer"], r["batch"]) for r in records] == [
            (1, 1),
            (1, 3),
        ]
        assert records[1]["m"] == 3 * SMALL_LAYER.m
        assert all(r["time_ms"] > 0 for r in records)


# ---------------------------------------------------------------------------
# Tuned per-layer dispatch (the ROADMAP open item)
# ---------------------------------------------------------------------------


class TestTunedDispatch:
    def test_serve_and_eval_match_cached_winners(self, tmp_path):
        problem = (SMALL_LAYER.m, SMALL_LAYER.n, SMALL_LAYER.k)
        cache = tune.TuneCache(tmp_path / "tunecache")
        artifact = tune.sweep(("neon",), [problem], cache=cache)
        winner, _ = tune.best_kernel(artifact, "neon", *problem)
        with tune.using(cache):
            ctx = machine_context(CARMEL)
            eval_tile, _ = tuned_layer_breakdown(ctx, *problem)
            executor = ModelExecutor(
                CARMEL,
                model=[(1, SMALL_LAYER)],
                threads=1,
                use_tuned=True,
            )
            _, serve_tile = executor.layer_time(SMALL_LAYER, 1)
            hits_before = cache.hits
            assert eval_tile == serve_tile == winner
            assert cache.hits > 0 and hits_before > 0

    def test_threaded_sweep_uses_tuned_main_tile(self, tmp_path):
        problem = (SMALL_LAYER.m, SMALL_LAYER.n, SMALL_LAYER.k)
        cache = tune.TuneCache(tmp_path / "tunecache")
        with tune.using(cache):
            ctx = machine_context(CARMEL)
            rows = threaded_instance_time_data(
                [(1, SMALL_LAYER)], ctx, (1,), use_tuned=True
            )
            tile, _ = tuned_layer_breakdown(ctx, *problem)
            serial = exo_gemm_breakdown(*problem, main=tile, ctx=ctx)
        assert rows[-1]["t1"] == serial.seconds


# ---------------------------------------------------------------------------
# End-to-end determinism (search + CLI)
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_configuration_outcome_is_deterministic(self):
        trace = synthetic_trace(60.0, 200.0, seed=2)
        outcomes = [
            evaluate_configuration(
                trace,
                CARMEL,
                "vgg16",
                Placement(replicas=2, threads_per_replica=2),
                BatchPolicy(max_batch=2, max_wait_ms=2.0),
            )
            for _ in range(2)
        ]
        assert outcomes[0].metrics == outcomes[1].metrics

    def test_cli_report_is_deterministic(self, tmp_path):
        args = [
            "--machine",
            "carmel",
            "--model",
            "vgg16",
            "--arrivals",
            "synthetic",
            "--rate",
            "60",
            "--duration",
            "150",
            "--slo-p99",
            "200ms",
            "--replicas",
            "2",
            "--threads",
            "2",
            "--max-batch",
            "2",
        ]
        texts = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            assert serve_main([str(outdir), *args]) == 0
            path = outdir / "serve_carmel_vgg16.json"
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        report = json.loads(texts[0])
        assert report["config"]["replicas"] == 2
        assert report["config"]["core_assignment"] == [[0, 1], [2, 3]]
        assert report["metrics"]["p50_ms"] <= report["metrics"]["p99_ms"]
        assert report["per_layer"]

    def test_cli_rejects_bad_arguments(self, tmp_path, capsys):
        assert serve_main(["--machine", "nonesuch"]) == 2
        assert serve_main(["--replicas", "2"]) == 2
        assert serve_main(["--arrivals", str(tmp_path / "missing.csv")]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("request_id,arrival_ms\n0,not-a-number\n")
        assert serve_main(["--arrivals", str(bad)]) == 2
        capsys.readouterr()

    def test_search_fails_fast_on_empty_trace(self):
        """The planner must refuse an empty trace with an actionable
        message, not crash deep inside the metrics aggregation."""
        with pytest.raises(ValueError) as err:
            search_configurations((), CARMEL, "vgg16", slo_p99_ms=50.0)
        assert "trace is empty" in str(err.value)
        assert "rate" in str(err.value)

    def test_cli_fails_fast_on_empty_trace(self, tmp_path, capsys):
        """A synthetic rate so low the first exponential draw overshoots
        the duration legitimately yields zero arrivals — exit 2 with a
        clear message, not a traceback."""
        rc = serve_main(
            [str(tmp_path), "--rate", "1e-9", "--duration", "1"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "trace is empty" in err
        assert "--rate" in err

    def test_cli_fails_fast_on_corrupt_csv(self, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("request_id,arrival_ms\n0,1.0\n0,2.0\n")
        assert serve_main(["--arrivals", str(dup)]) == 2
        assert "duplicate request_id" in capsys.readouterr().err

    def test_numa_machine_report_pins_replicas_to_nodes(self, tmp_path):
        """A serving run on the 2-socket machine reports the NUMA
        pinning of the chosen placement."""
        args = [
            str(tmp_path),
            "--machine", "numa2s",
            "--model", "vgg16",
            "--rate", "40",
            "--duration", "120",
            "--slo-p99", "500ms",
            "--replicas", "4",
            "--threads", "8",
            "--max-batch", "2",
        ]
        assert serve_main(args) == 0
        report = json.loads(
            (tmp_path / "serve_numa2s_vgg16.json").read_text()
        )
        cfg = report["config"]
        assert cfg["sockets"] == 2
        assert cfg["numa_nodes"] == 4
        assert cfg["numa_assignment"] == [[0], [1], [2], [3]]
        assert report["metrics"]["requests"] > 0
