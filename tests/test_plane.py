"""Tests for the live asyncio serving plane (repro.serve.plane).

The load-bearing invariants:

* the virtual timeline is a sound discrete-event scheduler: timers
  wake in order, a cancellable deadline timer races a wait correctly,
  and a wait nothing will fire is a diagnosed deadlock, not a hang;
* a controller's failure leaves ``run_trace`` as itself, and a
  controller whose ``execute`` suspends is a ``TypeError``;
* two identical sim-controller runs are **byte-identical** — reports,
  Chrome traces, and metrics — the property that makes the plane
  testable without hardware;
* with admission disabled, the live plane reproduces the offline
  batcher (``simulate_serving``) decision for decision: same replica,
  dispatch and completion time and batch size for every request, on
  a fixed trace and on random ones;
* under an infeasible SLO the admission gates shed load, every request
  is accounted (admitted + shed == arrived), and the shed counters
  reach the metrics registry;
* the stdlib HTTP front door answers /healthz, /v1/infer (200 and
  429), and /metrics on a real socket.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs as obslib
from repro.obs.context import trace_id_for
from repro.isa.machine import CARMEL, machine_by_name
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    MockController,
    PoolSpec,
    Request,
    ServePlane,
    SheddedRequest,
    VirtualTimeline,
    WallTimeline,
    assign_models,
    controller_for,
    estimated_latency_ms,
    live_report,
    parse_admission_spec,
    run_http,
    run_trace,
    save_report,
    simulate_serving,
    synthetic_trace,
    timeline_for,
)
from repro.serve.__main__ import main as serve_main
from repro.serve.__main__ import parse_duration_ms


def _mock_plane(
    specs,
    admission=AdmissionPolicy(),
    service_ms=10.0,
    obs=None,
):
    timeline = VirtualTimeline()
    return ServePlane(
        CARMEL,
        specs,
        timeline,
        controller="mock",
        admission=admission,
        obs=obs,
        mock_service_ms=service_ms,
    )


#: the value a deadline timer fires its future with
DEADLINE = object()


class TestVirtualTimeline:
    def test_sleepers_wake_in_time_order(self):
        timeline = VirtualTimeline()
        order = []

        async def sleeper(wake_ms):
            await timeline.sleep_until(wake_ms)
            order.append((wake_ms, timeline.now_ms()))

        async def main():
            tasks = [
                timeline.spawn(sleeper(ms)) for ms in (30.0, 10.0, 20.0)
            ]
            for task in tasks:
                await task

        timeline.execute(main())
        assert order == [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)]

    def test_wait_returns_fired_value(self):
        timeline = VirtualTimeline()

        async def main():
            future = timeline.create_future()

            async def firer():
                await timeline.sleep_until(5.0)
                timeline.fire(future, "payload")

            timeline.spawn(firer())
            return await timeline.wait(future)

        assert timeline.execute(main()) == "payload"

    def test_deadline_beats_a_never_fired_wait(self):
        timeline = VirtualTimeline()

        async def main():
            future = timeline.create_future()
            timeline.call_at(7.0, timeline.fire, future, DEADLINE)
            got = await timeline.wait(future)
            return got, timeline.now_ms()

        got, now = timeline.execute(main())
        assert got is DEADLINE
        assert now == 7.0

    def test_fire_beats_a_later_deadline(self):
        timeline = VirtualTimeline()

        async def main():
            future = timeline.create_future()
            deadline = timeline.call_at(
                100.0, timeline.fire, future, DEADLINE
            )

            async def firer():
                await timeline.sleep_until(3.0)
                deadline.cancel()
                timeline.fire(future, "won")

            timeline.spawn(firer())
            got = await timeline.wait(future)
            return got, timeline.now_ms()

        got, now = timeline.execute(main())
        assert got == "won"
        assert now == 3.0

    def test_unfireable_wait_is_a_diagnosed_deadlock(self):
        timeline = VirtualTimeline()

        async def main():
            await timeline.wait(timeline.create_future())

        with pytest.raises(RuntimeError, match="virtual-time deadlock"):
            timeline.execute(main())

    def test_timeline_for_maps_controllers(self):
        assert timeline_for("sim").kind == "virtual"
        assert timeline_for("real").kind == "wall"
        assert timeline_for("mock").kind == "wall"


class TestWallTimeline:
    def test_awaiting_a_task_returns_its_result(self):
        timeline = WallTimeline()

        async def worker():
            await timeline.sleep_until(timeline.now_ms() + 1.0)
            return "woke"

        async def main():
            return await timeline.spawn(worker())

        assert timeline.execute(main()) == "woke"


class TestControllers:
    def test_mock_controller_prices_affinely(self):
        ctrl = MockController(base_ms=2.0, per_item_ms=0.5)
        assert ctrl.service_estimate_ms(4) == 4.0

    def test_mock_controller_rejects_nonpositive_service(self):
        with pytest.raises(ValueError, match="must be positive"):
            MockController(base_ms=0.0)

    def test_sim_and_real_need_an_executor(self):
        for kind in ("sim", "real"):
            with pytest.raises(ValueError, match="needs a ModelExecutor"):
                controller_for(kind)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="unknown controller"):
            controller_for("hardware")

    def test_execute_prices_without_moving_the_clock(self):
        timeline = VirtualTimeline()
        ctrl = MockController(base_ms=8.0)

        async def main():
            service = await ctrl.execute(3)
            return service, timeline.now_ms()

        assert timeline.execute(main()) == (8.0, 0.0)


class TestAdmission:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionPolicy(max_queue_depth=-1)
        with pytest.raises(ValueError, match="deadline_ms"):
            AdmissionPolicy(deadline_ms=0.0)

    def test_enabled_flag(self):
        assert not AdmissionPolicy().enabled
        assert AdmissionPolicy(max_queue_depth=4).enabled
        assert AdmissionPolicy(deadline_ms=10.0).enabled

    def test_latency_projection(self):
        # 9 queued in batches of 4 -> 3 batches, +1 in flight = 4
        # batches over 2 replicas -> 2 waves of 50 ms
        assert (
            estimated_latency_ms(
                9,
                replicas=2,
                in_flight=1,
                max_batch=4,
                full_batch_service_ms=50.0,
            )
            == 100.0
        )

    def test_spec_parser(self):
        policy = parse_admission_spec(
            "depth=16,deadline=200ms", parse_duration_ms
        )
        assert policy.max_queue_depth == 16
        assert policy.deadline_ms == 200.0
        assert parse_admission_spec("none", parse_duration_ms) == (
            AdmissionPolicy()
        )

    def test_spec_parser_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown key 'dephts'"):
            parse_admission_spec("dephts=4", parse_duration_ms)
        with pytest.raises(ValueError, match="depth=N"):
            parse_admission_spec("whatever", parse_duration_ms)


class TestPoolValidation:
    def test_pool_spec_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            PoolSpec("resnet50", replicas=0, threads=2)
        with pytest.raises(ValueError, match="max_batch"):
            PoolSpec("resnet50", replicas=1, threads=2, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            PoolSpec(
                "resnet50", replicas=1, threads=2, max_wait_ms=-1.0
            )

    def test_oversubscribed_pools_rejected(self):
        # carmel has 8 cores; 3 replicas x 4 threads = 12 won't fit
        with pytest.raises(ValueError, match="shrink replicas x threads"):
            _mock_plane([PoolSpec("resnet50", replicas=3, threads=4)])

    def test_duplicate_pool_models_rejected(self):
        with pytest.raises(ValueError, match="duplicate pool models"):
            _mock_plane(
                [
                    PoolSpec("resnet50", 1, 2),
                    PoolSpec("resnet50", 1, 2),
                ]
            )

    def test_unknown_model_submission_rejected(self):
        plane = _mock_plane([PoolSpec("resnet50", 1, 2)])

        async def main():
            plane.start()
            with pytest.raises(ValueError, match="no pool serves"):
                plane.submit("vgg16")
            await plane.close()

        plane.timeline.execute(main())


class TestAssignModels:
    def test_single_model_mix_is_trivial(self):
        trace = synthetic_trace(50.0, 200.0, seed=0)
        tagged = assign_models(trace, {"resnet50": 1.0})
        assert all(model == "resnet50" for model, _ in tagged)
        assert tuple(req for _, req in tagged) == trace

    def test_weighted_mix_is_seeded_and_covers_models(self):
        trace = synthetic_trace(500.0, 2_000.0, seed=0)
        a = assign_models(trace, {"resnet50": 0.7, "vgg16": 0.3}, seed=1)
        b = assign_models(trace, {"resnet50": 0.7, "vgg16": 0.3}, seed=1)
        assert a == b
        c = assign_models(trace, {"resnet50": 0.7, "vgg16": 0.3}, seed=2)
        assert a != c
        models = [m for m, _ in a]
        assert models.count("resnet50") > models.count("vgg16") > 0

    def test_mix_validation(self):
        trace = synthetic_trace(10.0, 100.0, seed=0)
        with pytest.raises(ValueError, match="at least one model"):
            assign_models(trace, {})
        with pytest.raises(ValueError, match="must be positive"):
            assign_models(trace, {"resnet50": 0.0})


class TestLivePlaneBatching:
    """Mock-controller scenarios with exactly predictable schedules."""

    def _run(self, arrivals, spec, service_ms=10.0):
        plane = _mock_plane([spec], service_ms=service_ms)
        trace = tuple(
            Request(request_id=i, arrival_ms=ms)
            for i, ms in enumerate(arrivals)
        )
        return run_trace(plane, [(spec.model, r) for r in trace])

    def test_full_batch_dispatches_at_the_filling_arrival(self):
        result = self._run(
            [1.0, 2.0, 3.0],
            PoolSpec("resnet50", 1, 2, max_batch=3, max_wait_ms=50.0),
        )
        assert [b.size for b in result.batches] == [3]
        assert result.batches[0].dispatch_ms == 3.0
        assert all(s.completion_ms == 13.0 for s in result.served)

    def test_wait_expiry_closes_a_partial_batch(self):
        result = self._run(
            [1.0, 2.0, 40.0],
            PoolSpec("resnet50", 1, 2, max_batch=3, max_wait_ms=5.0),
        )
        assert [b.size for b in result.batches] == [2, 1]
        assert result.batches[0].dispatch_ms == 6.0  # head 1.0 + wait 5
        assert result.batches[1].dispatch_ms == 45.0

    def test_busy_replica_dispatches_backlog_immediately(self):
        # batch 1 occupies [1+2, 13]; requests 2..4 queue behind it and
        # go out as one batch the moment the replica frees
        result = self._run(
            [1.0, 4.0, 5.0, 6.0],
            PoolSpec("resnet50", 1, 2, max_batch=3, max_wait_ms=2.0),
        )
        assert [b.size for b in result.batches] == [1, 3]
        assert result.batches[1].dispatch_ms == 13.0

    def test_a_close_due_with_a_finish_runs_first(self):
        # requests 0 and 1 fill a batch served on replica 0 over
        # [0, 5); request 2 forms on replica 1 at 0 with its close due
        # at 5 too.  The close timer was armed before the service
        # timer, so at 5 the close's dispatch (the queue-depth sample)
        # comes before the finish's completions.
        obs = obslib.Obs(tracer=obslib.Tracer(clock=obslib.VirtualClock()))
        plane = _mock_plane(
            [PoolSpec("resnet50", 2, 2, max_batch=2, max_wait_ms=5.0)],
            service_ms=5.0,
            obs=obs,
        )
        run_trace(plane, [("resnet50", Request(i, 0.0)) for i in range(3)])
        at_5 = [e["name"] for e in obs.tracer.events() if e["ts"] == 5e3]
        assert at_5 == [
            "queue_depth_resnet50", "complete", "complete", "batch"
        ]

    def test_two_replicas_serve_concurrently(self):
        result = self._run(
            [0.5, 1.0],
            PoolSpec("resnet50", 2, 2, max_batch=1, max_wait_ms=0.0),
        )
        assert [b.size for b in result.batches] == [1, 1]
        dispatches = sorted(b.dispatch_ms for b in result.batches)
        assert dispatches == [0.5, 1.0]
        replicas = {b.replica for b in result.batches}
        assert replicas == {0, 1}


def _ms(lo, hi):
    """Milliseconds in [lo, hi]: integer-valued (so events tie) or float."""
    return st.one_of(
        st.integers(min_value=lo, max_value=hi).map(float),
        st.floats(min_value=float(lo), max_value=float(hi)),
    )


def _parity_schedules(trace, replicas, policy, base_ms, per_item_ms):
    """(offline, live) per-request and per-batch schedules of one trace."""
    offline = simulate_serving(
        trace, replicas, policy, lambda b: base_ms + per_item_ms * b
    )
    spec = PoolSpec(
        "resnet50",
        replicas=replicas,
        threads=1,
        max_batch=policy.max_batch,
        max_wait_ms=policy.max_wait_ms,
    )
    timeline = VirtualTimeline()
    plane = ServePlane(CARMEL, [spec], timeline, controller="mock")
    plane.pools["resnet50"].controller = MockController(
        base_ms=base_ms, per_item_ms=per_item_ms
    )
    live = run_trace(plane, [("resnet50", r) for r in trace])
    offline_requests = sorted(
        (s.request.request_id, s.replica, s.dispatch_ms, s.completion_ms,
         s.batch_size)
        for s in offline.served
    )
    live_requests = sorted(
        (s.request_id, s.replica, s.dispatch_ms, s.completion_ms,
         s.batch_size)
        for s in live.served
    )
    offline_batches = sorted(
        (b.dispatch_ms, b.replica, b.size, b.formed_ms)
        for b in offline.batches
    )
    live_batches = sorted(
        (b.dispatch_ms, b.replica, b.size, b.formed_ms)
        for b in live.batches
    )
    return (offline_requests, offline_batches), (live_requests, live_batches)


class TestOfflineParity:
    """The live plane and ``simulate_serving`` drive one batch former.

    With admission off and the same service pricing, every request
    must get the same replica, dispatch and completion instant and
    batch size, and every batch the same forming instant — exactly,
    not approximately.
    """

    def test_live_sim_matches_simulate_serving(self):
        trace = synthetic_trace(120.0, 2_000.0, seed=5)
        policy = BatchPolicy(max_batch=4, max_wait_ms=3.0)
        offline, live = _parity_schedules(trace, 2, policy, 6.0, 1.5)
        assert len(offline[0]) == len(trace)
        assert live == offline

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(_ms(0, 20), min_size=1, max_size=40),
        replicas=st.integers(min_value=1, max_value=4),
        max_batch=st.integers(min_value=1, max_value=6),
        max_wait_ms=_ms(0, 10),
        base_ms=_ms(1, 30),
        per_item_ms=_ms(0, 5),
    )
    def test_schedules_agree_on_random_traces(
        self, gaps, replicas, max_batch, max_wait_ms, base_ms, per_item_ms
    ):
        """Integer-valued draws make events coincide: ties must agree."""
        trace = tuple(
            Request(request_id=i, arrival_ms=ms)
            for i, ms in enumerate(itertools.accumulate(gaps))
        )
        policy = BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms)
        offline, live = _parity_schedules(
            trace, replicas, policy, base_ms, per_item_ms
        )
        assert live == offline


class TestAdmissionOnThePlane:
    def test_queue_depth_gate_sheds_and_accounts(self):
        # one replica busy for 100 ms; depth cap 2 -> arrivals 4.. shed
        spec = PoolSpec(
            "resnet50", 1, 2, max_batch=1, max_wait_ms=0.0
        )
        plane = _mock_plane(
            [spec],
            admission=AdmissionPolicy(max_queue_depth=2),
            service_ms=100.0,
        )
        trace = tuple(
            Request(request_id=i, arrival_ms=1.0 + i) for i in range(8)
        )
        result = run_trace(plane, [("resnet50", r) for r in trace])
        assert result.arrived == 8
        assert len(result.served) + len(result.shed) == 8
        assert result.shed
        assert all(s.reason == "queue_depth" for s in result.shed)

    def test_deadline_gate_sheds_infeasible_load(self):
        spec = PoolSpec(
            "resnet50", 1, 2, max_batch=2, max_wait_ms=1.0
        )
        plane = _mock_plane(
            [spec],
            admission=AdmissionPolicy(deadline_ms=50.0),
            service_ms=80.0,  # one wave already misses 50 ms
        )
        trace = synthetic_trace(100.0, 500.0, seed=0)
        result = run_trace(plane, [("resnet50", r) for r in trace])
        assert result.served == ()
        assert len(result.shed) == len(trace) == result.arrived
        assert all(s.reason == "deadline" for s in result.shed)

    def test_shed_counters_reach_the_metrics_registry(self):
        obs = obslib.Obs()
        spec = PoolSpec("resnet50", 1, 2, max_batch=1, max_wait_ms=0.0)
        plane = _mock_plane(
            [spec],
            admission=AdmissionPolicy(max_queue_depth=1),
            service_ms=100.0,
            obs=obs,
        )
        trace = tuple(
            Request(request_id=i, arrival_ms=1.0 + i) for i in range(6)
        )
        result = run_trace(plane, [("resnet50", r) for r in trace])
        counters = {
            name: snap["value"]
            for name, snap in obs.metrics.to_json().items()
            if snap["type"] == "counter"
        }
        assert counters["serve.live.arrived"] == 6
        assert counters["serve.live.admitted"] == len(result.served)
        assert counters["serve.live.shed"] == len(result.shed)
        assert (
            counters["serve.live.shed.queue_depth"] == len(result.shed)
        )
        assert counters["serve.live.completed"] == len(result.served)


class TestByteDeterminism:
    def _run_once(self, tmp_path, tag):
        obs = obslib.obs_from_cli(
            tmp_path / f"{tag}.trace.json",
            tmp_path / f"{tag}.metrics.json",
            virtual_time=True,
        )
        spec = PoolSpec(
            "resnet50", 1, 2, max_batch=2, max_wait_ms=1.0
        )
        plane = _mock_plane(
            [spec],
            admission=AdmissionPolicy(deadline_ms=120.0),
            service_ms=40.0,
            obs=obs,
        )
        trace = synthetic_trace(60.0, 1_500.0, seed=3)
        result = run_trace(plane, [("resnet50", r) for r in trace])
        report = live_report(
            plane,
            result,
            machine_name="carmel",
            isa=CARMEL.isa,
            trace_info={"kind": "synthetic", "requests": len(trace)},
            slo_p99_ms=120.0,
        )
        report_path = save_report(report, tmp_path / f"{tag}.json")
        obs.write_outputs()
        return report_path, tmp_path / f"{tag}.trace.json"

    def test_two_sim_runs_are_byte_identical(self, tmp_path):
        report_a, trace_a = self._run_once(tmp_path, "a")
        report_b, trace_b = self._run_once(tmp_path, "b")
        assert report_a.read_bytes() == report_b.read_bytes()
        assert trace_a.read_bytes() == trace_b.read_bytes()

    def test_report_mixes_admits_and_sheds(self, tmp_path):
        report_path, _ = self._run_once(tmp_path, "c")
        report = json.loads(report_path.read_text())
        totals = report["totals"]
        assert totals["admitted"] > 0
        assert totals["shed"] > 0
        assert (
            totals["admitted"] + totals["shed"] == totals["arrived"]
        )
        assert report["per_model"]["resnet50"]["shed_reasons"] == {
            "deadline": totals["shed"]
        }


class TestSimControllerEndToEnd:
    def test_model_backed_plane_is_deterministic(self):
        def run_once():
            machine = machine_by_name("carmel")
            timeline = VirtualTimeline()
            plane = ServePlane(
                machine,
                [PoolSpec("resnet50", 2, 4, max_batch=4)],
                timeline,
                controller="sim",
                admission=AdmissionPolicy(deadline_ms=2_000.0),
            )
            trace = synthetic_trace(15.0, 1_500.0, seed=1)
            result = run_trace(plane, [("resnet50", r) for r in trace])
            report = live_report(
                plane,
                result,
                machine_name="carmel",
                isa=machine.isa,
                trace_info={"kind": "synthetic"},
                slo_p99_ms=2_000.0,
            )
            return json.dumps(report, sort_keys=True)

        assert run_once() == run_once()


class TestHttpFrontDoor:
    def _serve(self, admission, requests, slo=None):
        """Run the front door for a beat; return client-side answers."""
        obs = obslib.Obs()
        plane = ServePlane(
            CARMEL,
            [PoolSpec("resnet50", 1, 2, max_batch=2, max_wait_ms=1.0)],
            WallTimeline(),
            controller="mock",
            admission=admission,
            obs=obs,
            mock_service_ms=2.0,
            slo=slo,
        )
        bound = {}
        answers = []
        done = threading.Event()

        def client():
            try:
                deadline = time.monotonic() + 5.0
                while "addr" not in bound:
                    if time.monotonic() > deadline:  # pragma: no cover
                        return
                    time.sleep(0.005)
                host, port = bound["addr"]
                for path, body in requests:
                    req = urllib.request.Request(
                        f"http://{host}:{port}{path}", data=body
                    )
                    try:
                        with urllib.request.urlopen(req, timeout=5) as resp:
                            answers.append((resp.status, resp.read()))
                    except urllib.error.HTTPError as err:
                        answers.append((err.code, err.read()))
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        result = run_http(
            plane,
            port=0,
            stop=done,
            ready=lambda addr: bound.update(addr=addr),
        )
        thread.join()
        return answers, result

    def test_healthz_infer_metrics_and_404(self):
        answers, result = self._serve(
            AdmissionPolicy(),
            [
                ("/healthz", None),
                ("/v1/infer", b'{"model": "resnet50"}'),
                ("/metrics", None),
                ("/nope", None),
            ],
        )
        assert [code for code, _ in answers] == [200, 200, 200, 404]
        health = json.loads(answers[0][1])
        assert health["status"] == "ok"
        served = json.loads(answers[1][1])
        assert served["model"] == "resnet50"
        assert served["batch_size"] >= 1
        assert b"serve_live_admitted 1" in answers[2][1]
        assert len(result.served) == 1

    def test_shed_is_a_429_with_reason(self):
        answers, result = self._serve(
            AdmissionPolicy(max_queue_depth=0),
            [("/v1/infer", b'{"model": "resnet50"}')],
        )
        code, body = answers[0]
        assert code == 429
        payload = json.loads(body)
        assert payload["error"] == "shed"
        assert payload["reason"] == "queue_depth"
        assert result.shed and not result.served

    def test_bad_model_is_a_400(self):
        answers, _ = self._serve(
            AdmissionPolicy(),
            [("/v1/infer", b'{"model": "alexnet"}')],
        )
        assert answers[0][0] == 400

    def test_http_refuses_the_virtual_timeline(self):
        plane = _mock_plane([PoolSpec("resnet50", 1, 2)])
        with pytest.raises(ValueError, match="wall timeline"):
            run_http(plane, duration_ms=1.0)

    @pytest.mark.parametrize("with_stop", [False, True])
    def test_duration_ends_serving_when_no_stop_fires(self, with_stop):
        plane = ServePlane(
            CARMEL,
            [PoolSpec("resnet50", 1, 2, max_batch=2, max_wait_ms=1.0)],
            WallTimeline(),
            controller="mock",
            mock_service_ms=2.0,
        )
        stop = threading.Event() if with_stop else None
        t0 = time.monotonic()
        result = run_http(plane, port=0, duration_ms=30.0, stop=stop)
        assert time.monotonic() - t0 >= 0.03
        assert result.arrived == 0

    def test_malformed_json_body_is_a_400(self):
        answers, result = self._serve(
            AdmissionPolicy(),
            [("/v1/infer", b"{not json")],
        )
        code, body = answers[0]
        assert code == 400
        assert json.loads(body)["error"] == "body is not JSON"
        assert result.arrived == 0  # rejected before admission

    def test_slo_endpoint_404_when_monitor_absent(self):
        answers, _ = self._serve(AdmissionPolicy(), [("/slo", None)])
        code, body = answers[0]
        assert code == 404
        assert "not enabled" in json.loads(body)["error"]

    def test_slo_endpoint_with_no_completed_requests(self):
        answers, _ = self._serve(
            AdmissionPolicy(),
            [("/slo", None)],
            slo=obslib.SloMonitor(threshold_ms=50.0),
        )
        code, body = answers[0]
        assert code == 200
        snap = json.loads(body)
        assert snap["totals"]["completed"] == 0
        assert snap["totals"]["error_rate"] == 0.0
        assert all(not alert["firing"] for alert in snap["alerts"])

    def test_slo_endpoint_reflects_served_traffic(self):
        answers, result = self._serve(
            AdmissionPolicy(),
            [
                ("/v1/infer", b'{"model": "resnet50"}'),
                ("/slo", None),
            ],
            slo=obslib.SloMonitor(threshold_ms=1_000.0),
        )
        assert [code for code, _ in answers] == [200, 200]
        snap = json.loads(answers[1][1])
        assert snap["totals"]["completed"] == len(result.served) == 1
        assert snap["totals"]["good"] == 1

    def test_oversized_body_is_a_413_without_reading_it(self):
        """A huge declared Content-Length is refused up front."""
        obs = obslib.Obs()
        plane = ServePlane(
            CARMEL,
            [PoolSpec("resnet50", 1, 2, max_batch=2, max_wait_ms=1.0)],
            WallTimeline(),
            controller="mock",
            admission=AdmissionPolicy(),
            obs=obs,
            mock_service_ms=2.0,
        )
        bound = {}
        answers = []
        done = threading.Event()

        def client():
            try:
                deadline = time.monotonic() + 5.0
                while "addr" not in bound:
                    if time.monotonic() > deadline:  # pragma: no cover
                        return
                    time.sleep(0.005)
                host, port = bound["addr"]
                with socket.create_connection(
                    (host, port), timeout=5
                ) as sock:
                    # declare a body we never send: the server must
                    # answer from the headers alone
                    sock.sendall(
                        b"POST /v1/infer HTTP/1.1\r\n"
                        b"Host: t\r\n"
                        b"Content-Length: 2000000\r\n"
                        b"\r\n"
                    )
                    response = b""
                    while b"\r\n\r\n" not in response:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        response += chunk
                        if b"}" in response:
                            break
                    answers.append(response)
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        result = run_http(
            plane,
            port=0,
            stop=done,
            ready=lambda addr: bound.update(addr=addr),
        )
        thread.join()
        assert answers, "client never got a response"
        head, _, body = answers[0].partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
        payload = json.loads(body)
        assert payload["error"] == "body too large"
        assert payload["limit_bytes"] == 1 << 20
        assert result.arrived == 0


class TestCausalChains:
    """The tentpole acceptance contract: complete chains, causal links."""

    def _traced_run(self, admission=AdmissionPolicy()):
        obs = obslib.Obs(
            tracer=obslib.Tracer(clock=obslib.VirtualClock())
        )
        plane = _mock_plane(
            [PoolSpec("resnet50", 1, 2, max_batch=4, max_wait_ms=2.0)],
            admission=admission,
            service_ms=5.0,
            obs=obs,
        )
        trace = synthetic_trace(30.0, 600.0, seed=5)
        result = run_trace(
            plane, [("resnet50", request) for request in trace]
        )
        by_request = {}
        batches = {}
        for event in obs.tracer.events():
            args = event.get("args") or {}
            if event["name"] == "batch" and event["ph"] == "X":
                batches[args["batch_id"]] = args
            elif "request_id" in args:
                by_request.setdefault(args["request_id"], {})[
                    event["name"]
                ] = args
        return result, by_request, batches

    def test_every_request_has_a_complete_causal_chain(self):
        result, by_request, batches = self._traced_run()
        assert result.served and len(by_request) == result.arrived
        for served in result.served:
            chain = by_request[served.request_id]
            assert set(chain) == {"arrive", "admit", "queued", "complete"}
            trace_id = trace_id_for(served.request_id)
            assert {c["trace_id"] for c in chain.values()} == {trace_id}
            # parent links walk the chain in causal order
            assert "parent_id" not in chain["arrive"]  # the root span
            assert chain["admit"]["parent_id"] == (
                chain["arrive"]["span_id"]
            )
            assert chain["queued"]["parent_id"] == (
                chain["admit"]["span_id"]
            )
            assert chain["complete"]["parent_id"] == (
                chain["queued"]["span_id"]
            )
            # the batch reference resolves to a real batch span
            batch = batches[chain["queued"]["batch_id"]]
            assert batch["size"] == served.batch_size
            assert "formed_ms" in batch

    def test_shed_requests_chain_arrive_to_shed(self):
        result, by_request, _ = self._traced_run(
            admission=AdmissionPolicy(max_queue_depth=1)
        )
        assert result.shed
        for shed in result.shed:
            chain = by_request[shed.request_id]
            assert set(chain) == {"arrive", "shed"}
            assert chain["shed"]["reason"] == shed.reason
            assert chain["shed"]["parent_id"] == (
                chain["arrive"]["span_id"]
            )

    def test_ids_are_deterministic_functions_of_the_request(self):
        _, first, _ = self._traced_run()
        _, second, _ = self._traced_run()
        assert first == second


class TestLiveCli:
    ARGS = [
        "--controller",
        "sim",
        "--arrivals",
        "mmpp:rates=5:60,dwell=300",
        "--duration",
        "1200",
        "--slo-p99",
        "2s",
        "--max-batch",
        "4",
        "-q",
    ]

    def test_cli_runs_end_to_end_and_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = serve_main(
                ["live", str(out)]
                + self.ARGS
                + [
                    "--metrics",
                    str(out / "m.json"),
                    "--trace",
                    str(out / "t.json"),
                ]
            )
            assert code == 0
        name = "live_carmel_sim.json"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "t.json").read_bytes() == (
            out_b / "t.json"
        ).read_bytes()
        assert (out_a / "m.prom").read_bytes() == (
            out_b / "m.prom"
        ).read_bytes()
        report = json.loads((out_a / name).read_text())
        assert report["plane"]["controller"] == "sim"
        assert report["plane"]["timeline"] == "virtual"
        assert report["totals"]["arrived"] > 0

    def test_infeasible_slo_sheds_through_the_cli(self, tmp_path):
        out = tmp_path / "shed"
        code = serve_main(
            [
                "live",
                str(out),
                "--controller",
                "sim",
                "--arrivals",
                "synthetic",
                "--rate",
                "40",
                "--duration",
                "800",
                "--slo-p99",
                "30ms",  # < one batch-1 forward pass: infeasible
                "--metrics",
                str(out / "m.json"),
                "-q",
            ]
        )
        assert code == 0
        report = json.loads((out / "live_carmel_sim.json").read_text())
        assert report["totals"]["shed"] > 0
        assert not report["slo_met"]
        prom = (out / "m.prom").read_text()
        assert "serve_live_shed" in prom

    @pytest.mark.parametrize(
        "extra",
        [
            ["--admission", "speed=1"],
            ["--pools", "resnet50=9x9"],
            ["--pools", "alexnet=1x2"],
            ["--mix", "vgg16=1.0"],
            ["--arrivals", "mmpp:rates=5,dwell=1"],
        ],
    )
    def test_cli_errors_exit_2(self, tmp_path, extra):
        code = serve_main(["live", str(tmp_path)] + extra + ["-q"])
        assert code == 2

    def test_planner_cli_accepts_generator_specs(self, tmp_path):
        code = serve_main(
            [
                str(tmp_path),
                "--arrivals",
                "diurnal:base=5,peak=25,period=800",
                "--duration",
                "800",
                "--replicas",
                "2",
                "--threads",
                "4",
                "--max-batch",
                "4",
                "-q",
            ]
        )
        assert code == 0
        report = json.loads(
            (tmp_path / "serve_carmel_resnet50.json").read_text()
        )
        assert report["trace"]["kind"] == "diurnal"


class _FailingController(MockController):
    """Fails its second batch."""

    def __init__(self, timeline):
        super().__init__(base_ms=5.0)
        self.calls = 0

    async def execute(self, batch):
        self.calls += 1
        if self.calls == 2:
            raise ValueError("replica lost")
        return self.service_estimate_ms(batch)


class _SleepingController(MockController):
    """Takes its own time, as controllers did before the pool did."""

    def __init__(self, timeline):
        super().__init__()
        self.timeline = timeline

    async def execute(self, batch):
        service_ms = self.service_estimate_ms(batch)
        await self.timeline.sleep_until(self.timeline.now_ms() + service_ms)
        return service_ms


def test_submit_without_obs_does_no_counter_work(monkeypatch):
    """Without an obs bundle an arrival never reaches the counters."""

    def count(self, name, help_text):
        raise AssertionError(f"counted {name} with no obs attached")

    monkeypatch.setattr(ServePlane, "_count", count)
    plane = _mock_plane(
        [PoolSpec("resnet50", 1, 2)],
        admission=AdmissionPolicy(max_queue_depth=2),
    )
    trace = [Request(i, 0.0) for i in range(8)]
    result = run_trace(plane, [("resnet50", r) for r in trace])
    assert result.shed and result.served


class TestRunTraceGuards:
    def test_empty_trace_is_actionable(self):
        plane = _mock_plane([PoolSpec("resnet50", 1, 2)])
        with pytest.raises(ValueError, match="trace is empty"):
            run_trace(plane, [])

    @staticmethod
    def _replay_with(controller_cls):
        plane = _mock_plane([PoolSpec("resnet50", 1, 2, max_batch=1)])
        pool = plane.pools["resnet50"]
        pool.controller = controller_cls(plane.timeline)
        trace = [Request(i, 10.0 * i) for i in range(4)]
        return run_trace(plane, assign_models(trace, {"resnet50": 1.0}))

    def test_controller_exception_leaves_run_trace(self):
        with pytest.raises(ValueError, match="replica lost"):
            self._replay_with(_FailingController)

    def test_controller_exception_leaves_a_wall_run(self):
        """A raising callback ends the wall timeline's run, not hangs it.

        The replay runs in a daemon thread joined with a timeout, so a
        regression fails here instead of hanging the suite.
        """

        class Raising(MockController):
            async def execute(self, batch):
                raise ValueError("replica lost")

        plane = ServePlane(
            CARMEL, [PoolSpec("resnet50", 1, 2)], WallTimeline(),
            controller="mock", mock_service_ms=1.0,
        )
        plane.pools["resnet50"].controller = Raising()
        outcome = []

        def replay():
            try:
                run_trace(plane, [("resnet50", Request(0, 0.0))])
            except Exception as error:
                outcome.append(error)

        worker = threading.Thread(target=replay, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "the wall run hung"
        assert len(outcome) == 1
        assert isinstance(outcome[0], ValueError)
        assert str(outcome[0]) == "replica lost"

    def test_suspending_controller_is_a_type_error(self):
        with pytest.raises(TypeError, match="execute suspended"):
            self._replay_with(_SleepingController)

    def test_replay_spawns_one_task(self, monkeypatch):
        spawned = []
        spawn = VirtualTimeline.spawn

        def counting_spawn(self, coro):
            spawned.append(coro)
            return spawn(self, coro)

        monkeypatch.setattr(VirtualTimeline, "spawn", counting_spawn)
        plane = _mock_plane(
            [PoolSpec("resnet50", 2, 2), PoolSpec("vgg16", 1, 2)],
            admission=AdmissionPolicy(max_queue_depth=3),
        )
        trace = synthetic_trace(400.0, 500.0, seed=3)
        result = run_trace(
            plane,
            assign_models(trace, {"resnet50": 2.0, "vgg16": 1.0}, seed=3),
        )
        assert result.arrived == len(trace) > 100
        assert result.shed and result.served
        assert len(spawned) == 1


def test_shedded_request_records_are_frozen():
    shed = SheddedRequest(
        request_id=1, model="resnet50", arrival_ms=2.0, reason="deadline"
    )
    with pytest.raises(AttributeError):
        shed.reason = "other"


def test_wall_timeline_sleeps_approximately():
    timeline = WallTimeline()

    async def main():
        start = timeline.now_ms()
        await timeline.sleep_until(start + 20.0)
        return timeline.now_ms() - start

    elapsed = timeline.execute(main())
    assert elapsed >= 19.0


def test_wall_timeline_callbacks_run_and_cancel():
    timeline = WallTimeline()
    ran = []

    async def main():
        done = timeline.create_future()
        start = timeline.now_ms()
        timeline.call_at(start + 5.0, ran.append, "cancelled").cancel()
        timeline.call_at(start + 10.0, timeline.fire, done)
        timeline.call_soon(ran.append, "soon")
        await timeline.wait(done)
        return timeline.now_ms() - start

    assert timeline.execute(main()) >= 9.0
    assert ran == ["soon"]
