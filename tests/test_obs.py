"""Tests for the observability subsystem (repro.obs).

Covers the tentpole contracts: virtual-clock serve traces are
byte-identical across runs, Chrome trace events validate against the
minimal schema, histogram percentiles agree with the serving report's
nearest-rank definition, exporters are deterministic, the structured
logger honours --quiet/-v, and disabled-by-default instrumentation
changes no existing report bytes.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullTracer,
    Obs,
    Tracer,
    VirtualClock,
    jsonl_path_for,
    obs_from_cli,
    prom_path_for,
    validate_trace_events,
    validate_trace_file,
)
from repro.obs import log as obslog
from repro.obs import profile as obs_profile
from repro.obs.metrics import (
    _escape_help,
    _prom_name,
    nearest_rank_percentile,
)
from repro.obs.profile import GemmProfiler
from repro.serve.__main__ import main as serve_main
from repro.serve.report import percentile as serve_percentile
from repro.tune.__main__ import main as tune_main


@pytest.fixture(autouse=True)
def _restore_verbosity():
    previous = obslog.verbosity()
    yield
    obslog.configure(previous)


@pytest.fixture(autouse=True)
def _no_active_profiler():
    yield
    obs_profile.deactivate()


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_emits_complete_event(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        clock.advance_to_us(10.0)
        with tracer.span("work", cat="test", args={"k": 1}):
            clock.advance_to_us(35.0)
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["ts"] == 10.0 and event["dur"] == 25.0
        assert event["cat"] == "test" and event["args"] == {"k": 1}

    def test_begin_end_nest_and_validate(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        tracer.begin("outer")
        clock.advance_to_us(1.0)
        tracer.begin("inner")
        clock.advance_to_us(2.0)
        tracer.end()  # inner
        tracer.end()  # outer
        events = tracer.events()
        assert [e["ph"] for e in events] == ["B", "B", "E", "E"]
        assert validate_trace_events(events) == []

    def test_end_without_begin_raises(self):
        with pytest.raises(ValueError):
            Tracer(clock=VirtualClock()).end()

    def test_metadata_sorts_first(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        tracer.instant("later", ts_us=0.0)
        tracer.metadata("process_name", "p")
        events = tracer.events()
        assert events[0]["ph"] == "M"
        assert "_seq" not in events[0]

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.begin("x")
        tracer.end()
        tracer.counter("c", 1.0)
        with tracer.span("y"):
            pass
        assert tracer.events() == []

    def test_jsonl_sibling_path(self, tmp_path):
        assert jsonl_path_for("out.trace.json").name == "out.trace.jsonl"
        assert jsonl_path_for("plain").name == "plain.jsonl"


class TestTraceValidator:
    def test_flags_backwards_ts(self):
        events = [
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 0, "tid": 0},
            {"name": "b", "ph": "i", "ts": 1.0, "pid": 0, "tid": 0},
        ]
        problems = validate_trace_events(events)
        assert any("backwards" in p for p in problems)

    def test_flags_x_without_dur(self):
        events = [{"name": "a", "ph": "X", "ts": 0.0, "pid": 0, "tid": 0}]
        assert any("dur" in p for p in validate_trace_events(events))

    def test_flags_unmatched_begin_end(self):
        events = [{"name": "a", "ph": "E", "ts": 0.0, "pid": 0, "tid": 0}]
        assert any("without B" in p for p in validate_trace_events(events))
        events = [{"name": "a", "ph": "B", "ts": 0.0, "pid": 0, "tid": 0}]
        assert any("unclosed" in p for p in validate_trace_events(events))

    def test_flags_non_numeric_counter(self):
        events = [
            {
                "name": "c", "ph": "C", "ts": 0.0, "pid": 0, "tid": 0,
                "args": {"v": "high"},
            }
        ]
        assert any("non-numeric" in p for p in validate_trace_events(events))

    def test_missing_keys(self):
        assert any(
            "missing keys" in p
            for p in validate_trace_events([{"ph": "i"}])
        )

    def test_validates_written_files(self, tmp_path):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        tracer.metadata("process_name", "t")
        with tracer.span("s"):
            clock.advance_to_us(4.0)
        chrome = tracer.write_chrome(tmp_path / "t.trace.json")
        jsonl = tracer.write_jsonl(tmp_path / "t.trace.jsonl")
        assert validate_trace_file(chrome) == []
        assert validate_trace_file(jsonl) == []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    @pytest.mark.parametrize(
        "values",
        [
            [7.0],
            [3.0, 1.0],
            [5.0, 1.0, 9.0, 3.0],
            [float(v) for v in range(1, 101)],
            [0.25 * v for v in range(17)],
        ],
    )
    @pytest.mark.parametrize("q", [0, 1, 50, 95, 99, 100])
    def test_histogram_percentile_matches_serve_report(self, values, q):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in values:
            hist.observe(value)
        assert hist.percentile(q) == serve_percentile(values, q)

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_tracks_max(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.0)
        gauge.dec(2.0)
        assert gauge.value == 1.0 and gauge.max == 3.0

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_histogram_requires_increasing_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_json_export_is_deterministic(self, tmp_path):
        def build():
            registry = MetricsRegistry()
            registry.gauge("b.gauge").set(2.0)
            registry.counter("a.counter").inc(3)
            hist = registry.histogram("c.hist", buckets=(1.0, 10.0))
            for v in (0.5, 2.0, 50.0):
                hist.observe(v)
            return registry

        paths = []
        for run in ("one", "two"):
            path = build().write_json(tmp_path / run / "m.json")
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
        snap = json.loads(paths[0])
        assert list(snap) == sorted(snap)
        assert snap["c.hist"]["overflow"] == 1

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests", help="served").inc(4)
        hist = registry.histogram("lat.ms", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            hist.observe(v)
        text = registry.prometheus_text()
        assert "# TYPE serve_requests counter" in text
        assert "serve_requests 4" in text
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="10"} 2' in text  # cumulative
        assert 'lat_ms_bucket{le="+Inf"} 3' in text
        assert "lat_ms_count 3" in text

    def test_prom_sibling_path(self):
        assert prom_path_for("out.metrics.json").name == "out.metrics.prom"


class TestEmptyPercentile:
    def test_histogram_error_names_the_metric(self):
        hist = Histogram("serve.latency_ms", buckets=(1.0,))
        with pytest.raises(ValueError) as excinfo:
            hist.percentile(99)
        message = str(excinfo.value)
        assert "p99" in message
        assert "'serve.latency_ms'" in message
        assert "no observations recorded" in message

    def test_bare_helper_error_without_a_name(self):
        with pytest.raises(
            ValueError, match=r"cannot take p50 of an empty sample"
        ):
            nearest_rank_percentile([], 50)

    def test_snapshot_of_empty_histogram_has_no_percentiles(self):
        snap = Histogram("h", buckets=(1.0,)).snapshot()
        assert snap["count"] == 0
        assert "p99" not in snap and "min" not in snap


class TestHistogramReservoir:
    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_observations"):
            Histogram("h", buckets=(1.0,), max_observations=0)

    def test_exact_below_the_cap(self):
        hist = Histogram("h", buckets=(100.0,), max_observations=50)
        values = [float(v) for v in range(40)]
        for value in values:
            hist.observe(value)
        assert not hist.sampled
        assert "sampled" not in hist.snapshot()
        for q in (50, 95, 99):
            assert hist.percentile(q) == serve_percentile(values, q)

    def test_reservoir_bounds_memory_and_flags_sampling(self):
        cap = 64
        hist = Histogram("h", buckets=(1e6,), max_observations=cap)
        for value in range(1000):
            hist.observe(float(value))
        assert len(hist._values) == cap
        assert hist.sampled
        assert hist.snapshot()["sampled"] is True
        # exact aggregates survive the sampling
        assert hist.count == 1000
        assert hist.sum == sum(float(v) for v in range(1000))
        assert hist.snapshot()["min"] == 0.0
        assert hist.snapshot()["max"] == 999.0
        # the estimate is drawn from real observations
        assert hist.percentile(50) in set(float(v) for v in range(1000))

    def test_reservoir_is_deterministic_per_name(self):
        def build(name):
            hist = Histogram(name, buckets=(1e6,), max_observations=16)
            for value in range(500):
                hist.observe(float(value))
            return hist

        assert build("a")._values == build("a")._values
        # seeded from the name: a different metric samples differently
        assert build("a")._values != build("b")._values

    def test_registry_passes_the_cap_through(self):
        registry = MetricsRegistry()
        hist = registry.histogram("capped", max_observations=8)
        for value in range(100):
            hist.observe(float(value))
        assert registry.histogram("capped").sampled
        snap = json.loads(json.dumps(registry.to_json()))
        assert snap["capped"]["sampled"] is True

    def test_uncapped_default_keeps_everything(self):
        hist = Histogram("h", buckets=(1e6,))
        for value in range(1000):
            hist.observe(float(value))
        assert len(hist._values) == 1000
        assert not hist.sampled


class TestPrometheusSanitization:
    PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

    @pytest.mark.parametrize(
        "raw",
        [
            "serve.latency.p99_ms",
            "weird-metric@host/path",
            "0starts.with.digit",
            "spaces in name",
            "unicode.mñtric",
        ],
    )
    def test_prom_name_round_trip(self, raw):
        prom = _prom_name(raw)
        assert self.PROM_NAME.match(prom), prom
        # idempotent: sanitizing a sanitized name changes nothing
        assert _prom_name(prom) == prom

    def test_scrape_of_weird_names_is_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("weird-metric@host/path", help="w").inc()
        registry.counter("0starts.with.digit").inc()
        text = registry.prometheus_text()
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name = line.split("{")[0].split(" ")[0]
            assert self.PROM_NAME.match(name), line

    def test_help_escaping(self):
        assert _escape_help('a\\b\nc"d') == 'a\\\\b\\nc\\"d'

    def test_help_with_newline_backslash_quote_stays_one_line(self):
        registry = MetricsRegistry()
        registry.counter(
            "tricky", help='first\nsecond \\ "quoted"'
        ).inc()
        text = registry.prometheus_text()
        (help_line,) = [
            line for line in text.splitlines() if line.startswith("# HELP")
        ]
        assert help_line == (
            '# HELP tricky first\\nsecond \\\\ \\"quoted\\"'
        )


# ---------------------------------------------------------------------------
# Logger
# ---------------------------------------------------------------------------


class TestLogger:
    def test_quiet_suppresses_stdout_keeps_stderr(self, capsys):
        obslog.configure(obslog.QUIET)
        log = obslog.get_logger("t")
        log.info("progress")
        log.error("broken")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "broken" in captured.err

    def test_debug_gated_behind_verbose(self, capsys):
        log = obslog.get_logger("t")
        obslog.configure(obslog.INFO)
        log.debug("hidden")
        obslog.configure(obslog.DEBUG)
        log.debug("shown")
        out = capsys.readouterr().out
        assert "hidden" not in out and "[t] shown" in out

    def test_fields_append_key_value(self, capsys):
        obslog.configure(obslog.INFO)
        obslog.get_logger().info("wrote", path="x.json", n=2)
        assert "wrote path=x.json n=2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# GEMM profiler (the eval-layer hooks)
# ---------------------------------------------------------------------------


class TestGemmProfiler:
    def test_records_serial_and_parallel_evaluations(self):
        from repro.eval.harness import (
            default_context,
            exo_gemm_breakdown,
            exo_parallel_breakdown,
        )

        profiler = GemmProfiler()
        with obs_profile.using(profiler):
            exo_gemm_breakdown(64, 48, 64)
            exo_parallel_breakdown(256, 256, 256, 2, ctx=default_context())
        kinds = {r["kind"] for r in profiler.records}
        assert kinds == {"serial", "parallel"}
        parallel = [r for r in profiler.records if r["kind"] == "parallel"]
        assert parallel[-1]["threads"] == 2
        assert parallel[-1]["pc_ways"] >= 1
        assert "x" in parallel[-1]["partition"]
        for record in profiler.records:
            assert record["total_cycles"] > 0
            assert record["compute_cycles"] > 0

    def test_threaded_sweep_prices_one_grid_batch_per_isa_chunk(self):
        from repro import tune
        from repro.blis.params import analytical_tile_params, clamp_tiles
        from repro.isa.targets import target
        from repro.sim.parallel import candidate_grids
        from repro.tune.space import enumerate_space

        isas = ("neon", "rvv128")
        problems = ((64, 48, 64), (53, 103, 40))
        jobs = enumerate_space(isas, problems, threads=(2, 4))
        grid_rows = 0
        for job in jobs:
            machine = target(job.isa).machine
            tiles = clamp_tiles(
                analytical_tile_params(job.mr, job.nr, machine),
                job.m, job.n, job.k,
            )
            grid_rows += len(
                candidate_grids(
                    job.threads, job.m, job.n, machine, job.mr, job.nr,
                    k=job.k, kc=tiles.kc,
                )
            )
        metrics = MetricsRegistry()
        profiler = GemmProfiler(metrics=metrics)
        tune.reset_breakdown_calls()
        with obs_profile.using(profiler):
            tune.sweep(isas, problems, workers=0, threads=(2, 4))
        # one grid batch per ISA chunk, and no per-job "parallel" record
        assert [r["kind"] for r in profiler.records] == ["batch.grid"] * 2
        assert sum(r["candidates"] for r in profiler.records) == grid_rows
        assert metrics["model.candidates_evaluated"].value == grid_rows
        assert tune.breakdown_calls() == len(jobs)

    def test_inactive_profiler_records_nothing(self):
        from repro.eval.harness import exo_gemm_breakdown

        profiler = GemmProfiler()
        exo_gemm_breakdown(64, 48, 64)
        assert profiler.records == []
        assert obs_profile.ACTIVE is None

    def test_profiler_feeds_tracer_and_metrics(self):
        from repro.eval.harness import exo_gemm_breakdown

        obs = Obs(tracer=Tracer(), metrics=MetricsRegistry())
        profiler = GemmProfiler(tracer=obs.tracer, metrics=obs.metrics)
        with obs_profile.using(profiler):
            exo_gemm_breakdown(64, 48, 64)
        events = [e for e in obs.tracer.events() if e["ph"] == "X"]
        assert any(e["name"] == "gemm 64x48x64" for e in events)
        assert obs.metrics["gemm.evaluations.serial"].value >= 1
        assert obs.metrics["gemm.eval_us"].count >= 1


# ---------------------------------------------------------------------------
# CLI integration: serve trace determinism, tune obs outputs
# ---------------------------------------------------------------------------


SERVE_ARGS = [
    "--machine", "carmel",
    "--model", "resnet50",
    "--rate", "40",
    "--duration", "200",
    "--slo-p99", "200ms",
    "--replicas", "2",
    "--threads", "2",
    "--max-batch", "2",
    "--quiet",
]


class TestServeCliObs:
    def test_trace_is_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            rc = serve_main(
                [
                    str(outdir),
                    *SERVE_ARGS,
                    "--trace", str(outdir / "serve.trace.json"),
                    "--metrics", str(outdir / "serve.metrics.json"),
                ]
            )
            assert rc == 0
            blobs.append(
                tuple(
                    (outdir / name).read_bytes()
                    for name in (
                        "serve.trace.json",
                        "serve.trace.jsonl",
                        "serve.metrics.json",
                        "serve.metrics.prom",
                    )
                )
            )
        assert blobs[0] == blobs[1]

    def test_trace_schema_spans_and_counters(self, tmp_path):
        trace_path = tmp_path / "serve.trace.json"
        rc = serve_main(
            [str(tmp_path), *SERVE_ARGS, "--trace", str(trace_path)]
        )
        assert rc == 0
        assert validate_trace_file(trace_path) == []
        assert validate_trace_file(tmp_path / "serve.trace.jsonl") == []
        events = json.loads(trace_path.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert {"arrive", "queued", "complete", "batch"} <= names
        assert "queue_depth" in names
        queued = [e for e in events if e["name"] == "queued"]
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in queued)
        assert any(
            e["name"] == "thread_name" and e["ph"] == "M" for e in events
        )

    def test_obs_does_not_change_report_bytes(self, tmp_path):
        plain = tmp_path / "plain"
        traced = tmp_path / "traced"
        assert serve_main([str(plain), *SERVE_ARGS]) == 0
        assert (
            serve_main(
                [
                    str(traced),
                    *SERVE_ARGS,
                    "--trace", str(traced / "serve.trace.json"),
                ]
            )
            == 0
        )
        name = "serve_carmel_resnet50.json"
        assert (plain / name).read_bytes() == (traced / name).read_bytes()

    def test_metrics_summarize_the_run(self, tmp_path):
        metrics_path = tmp_path / "serve.metrics.json"
        rc = serve_main(
            [str(tmp_path), *SERVE_ARGS, "--metrics", str(metrics_path)]
        )
        assert rc == 0
        snap = json.loads(metrics_path.read_text())
        assert snap["serve.requests"]["value"] > 0
        assert snap["serve.batches"]["value"] > 0
        latency = snap["serve.latency_ms"]
        assert latency["count"] == snap["serve.requests"]["value"]
        assert latency["p50"] <= latency["p99"]


class TestTuneCliObs:
    def test_trace_and_metrics_outputs_validate(self, tmp_path, capsys):
        rc = tune_main(
            [
                "--machines", "neon",
                "--shapes", "64x48x64",
                "--cache-dir", str(tmp_path / "tunecache"),
                "--out", str(tmp_path / "art.json"),
                "--trace", str(tmp_path / "tune.trace.json"),
                "--metrics", str(tmp_path / "tune.metrics.json"),
                "--quiet",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert validate_trace_file(tmp_path / "tune.trace.json") == []
        events = json.loads(
            (tmp_path / "tune.trace.json").read_text()
        )["traceEvents"]
        assert any(e["name"] == "sweep" for e in events)
        assert any(e["name"].startswith("chunk neon") for e in events)
        snap = json.loads((tmp_path / "tune.metrics.json").read_text())
        assert snap["tune.jobs_total"]["value"] > 0
        assert snap["tune.cache_misses"]["value"] > 0
        assert snap["tune.cache_hits"]["value"] == 0
        assert snap["tune.modelled_evaluations"]["value"] > 0
        assert "gemm.evaluations.serial" not in snap  # no profiler here


class TestObsBundle:
    def test_obs_from_cli_disabled_is_none(self):
        assert obs_from_cli(None, None) is None

    def test_obs_from_cli_virtual_time(self):
        obs = obs_from_cli("t.json", None, virtual_time=True)
        assert isinstance(obs.tracer.clock, VirtualClock)
        assert obs.metrics_path is None

    def test_write_outputs_covers_both_sinks(self, tmp_path):
        clock = VirtualClock()
        obs = Obs(
            tracer=Tracer(clock=clock),
            metrics=MetricsRegistry(),
            trace_path=tmp_path / "o.trace.json",
            metrics_path=tmp_path / "o.metrics.json",
        )
        with obs.tracer.span("s"):
            clock.advance_to_us(2.0)
        obs.metrics.counter("c").inc()
        written = {p.name for p in obs.write_outputs()}
        assert written == {
            "o.trace.json",
            "o.trace.jsonl",
            "o.metrics.json",
            "o.metrics.prom",
        }
