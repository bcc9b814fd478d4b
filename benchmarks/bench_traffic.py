"""Traffic-generator and live-plane throughput benchmarks.

The serving docs promise O(requests) trace generation — million-request
traces in seconds — and a live plane whose virtual-time simulation is
fast enough to replay heavy traffic in CI.  This module records both
as rates (requests per second of the benchmark's median time, or of
the one timed call under ``--benchmark-disable``): MMPP
and diurnal generation at one million requests, and the end-to-end
live plane (admission, queueing, batch forming, virtual timeline) on a
mock controller next to the offline ``simulate_serving`` loop on the
same trace — the pair whose ratio is the live plane's overhead.
"""

from __future__ import annotations

import time

from repro.isa.machine import CARMEL
from repro.serve import (
    BatchPolicy,
    MockController,
    PoolSpec,
    ServePlane,
    VirtualTimeline,
    diurnal_trace,
    mmpp_trace,
    run_trace,
    simulate_serving,
)
from repro.serve.admission import AdmissionPolicy

#: one million requests: rates x duration chosen so the mean offered
#: load across MMPP states / the diurnal cycle lands on ~1e6 arrivals
MILLION_MS = 1_000_000.0 / 2_000.0 * 1_000.0  # 2000 rps mean for 500 s


def _timed(benchmark, fn, *args, **kwargs):
    """``fn``'s result under the fixture and its median seconds.

    Under ``--benchmark-disable`` the fixture runs ``fn`` once and keeps
    no stats, so that one call is timed here instead.
    """
    start = time.perf_counter()
    result = benchmark(fn, *args, **kwargs)
    elapsed = time.perf_counter() - start
    if benchmark.stats is None:
        return result, elapsed
    return result, benchmark.stats.stats.median


def test_mmpp_generation_rate(benchmark):
    trace, median_s = _timed(
        benchmark,
        mmpp_trace,
        rates_rps=(1000.0, 3000.0),
        mean_dwell_ms=250.0,
        duration_ms=MILLION_MS,
        seed=7,
    )
    n = len(trace)
    assert n > 500_000, f"expected ~1e6 requests, drew {n}"
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=1,
        metric="mmpp_requests_per_s",
        value=n / median_s,
    )
    print(f"\n  mmpp drew {n} requests over {MILLION_MS / 1e3:.0f} s")


def test_diurnal_generation_rate(benchmark):
    trace, median_s = _timed(
        benchmark,
        diurnal_trace,
        base_rps=500.0,
        peak_rps=3500.0,
        duration_ms=MILLION_MS,
        period_ms=60_000.0,
        seed=7,
    )
    n = len(trace)
    assert n > 500_000, f"expected ~1e6 requests, drew {n}"
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=1,
        metric="diurnal_requests_per_s",
        value=n / median_s,
    )
    print(f"\n  diurnal drew {n} requests over {MILLION_MS / 1e3:.0f} s")


#: the replay both planes run: trace, pool shape and mock pricing
REPLAY_TRACE = dict(
    rates_rps=(200.0, 800.0),
    mean_dwell_ms=300.0,
    duration_ms=10_000.0,
    seed=3,
)
REPLAY_POOL = PoolSpec("resnet50", replicas=2, threads=4)
REPLAY_BASE_MS, REPLAY_PER_ITEM_MS = 2.0, 0.5


def test_live_plane_sim_throughput(benchmark):
    """Virtual-time replay rate of the full admission + batching path."""
    arrivals = [("resnet50", r) for r in mmpp_trace(**REPLAY_TRACE)]

    def run():
        timeline = VirtualTimeline()
        plane = ServePlane(
            CARMEL,
            [REPLAY_POOL],
            timeline=timeline,
            controller="mock",
            admission=AdmissionPolicy(max_queue_depth=64),
            mock_service_ms=1.0,
        )
        for pool in plane.pools.values():
            pool.controller = MockController(
                base_ms=REPLAY_BASE_MS,
                per_item_ms=REPLAY_PER_ITEM_MS,
            )
        return run_trace(plane, arrivals)

    result, median_s = _timed(benchmark, run)
    assert result.arrived == len(arrivals)
    assert len(result.served) + len(result.shed) == result.arrived
    rate = result.arrived / median_s
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=4,
        metric="live_sim_requests_per_s",
        value=rate,
    )
    print(
        f"\n  live sim replayed {result.arrived} requests "
        f"({len(result.served)} served, {len(result.shed)} shed) "
        f"at {rate:,.0f} req/s"
    )


def test_offline_sim_throughput(benchmark):
    """Replay rate of ``simulate_serving`` on the live bench's trace.

    Same trace, replicas, batch policy and service pricing as
    :func:`test_live_plane_sim_throughput`, without its admission
    gate: the offline loop is the floor the live plane's event loop
    is measured against.
    """
    trace = mmpp_trace(**REPLAY_TRACE)
    policy = BatchPolicy(REPLAY_POOL.max_batch, REPLAY_POOL.max_wait_ms)

    def service_ms(batch):
        return REPLAY_BASE_MS + REPLAY_PER_ITEM_MS * batch

    result, median_s = _timed(
        benchmark,
        simulate_serving,
        trace,
        REPLAY_POOL.replicas,
        policy,
        service_ms,
    )
    assert len(result.served) == len(trace)
    rate = len(trace) / median_s
    benchmark.extra_info.update(
        machine="carmel",
        isa="neon",
        threads=4,
        metric="offline_sim_requests_per_s",
        value=rate,
    )
    print(
        f"\n  offline sim replayed {len(trace)} requests at {rate:,.0f} req/s"
    )
