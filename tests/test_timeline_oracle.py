"""The virtual timeline against its asyncio-stepped oracle.

:class:`AsyncioVirtualTimeline` below is the virtual timeline as it was
when the sim plane ran on asyncio: coroutines are asyncio tasks, and a
stepper task advances the clock whenever a runnable counter, adjusted
at every block and wake, reaches zero.  Its ``call_soon`` and
``call_at`` are built from those primitives — a callback is a spawned
task, and a timed one parks on a timer armed at call time.  The
production :class:`repro.serve.VirtualTimeline` runs the same
coroutines and callbacks on its own FIFO ready queue and advances when
that queue is empty.  asyncio's ready queue is FIFO too, so the two
must schedule identically:

* the property replays random traces (Poisson or MMPP, optionally with
  integer-valued arrival times so events tie) through one or two
  pools, with or without an admission gate, on the mock and the sim
  controller, with tracing, metrics and the SLO monitor on, and
  requires equal ``LiveResult`` records and byte-identical report,
  Chrome trace, JSONL log, metrics JSON and Prometheus text;
* the edge-case tests pin the loop's ordering and failure rules on
  both timelines: same-instant sleepers and timers, ``call_soon``'s
  queue place, two fires in one step, the waiters of one future,
  exceptions in ``main`` and in a joined task, cancelled timers, and
  the diagnosed deadlock; under the production timeline a foreign
  awaitable (an asyncio sleep or future) is a ``TypeError``, not a
  hang, and a failed task nobody joined is the cause of the deadlock
  it leads to.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import tempfile
import weakref
from pathlib import Path
from typing import Any, Coroutine, List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs as obslib
from repro.isa.machine import CARMEL
from repro.serve import (
    AdmissionPolicy,
    PoolSpec,
    Request,
    ServePlane,
    VirtualTimeline,
    assign_models,
    live_report,
    mmpp_trace,
    run_trace,
    save_report,
    synthetic_trace,
)


class AsyncioVirtualTimeline:
    """The simulated-time timeline: deterministic discrete-event asyncio.

    Coroutines written against the timeline interface run unchanged;
    only time is virtual.  The stepper inside :meth:`execute` advances
    the clock to the earliest registered wake whenever every spawned
    task is blocked, so execution order is a pure function of the
    program — no wall clock, no I/O, no nondeterminism.
    """

    kind = "virtual"

    def __init__(self, start_ms: float = 0.0):
        """Start the virtual clock at ``start_ms``."""
        self._now_ms = start_ms
        self._seq = 0
        #: (wake_ms, seq, future, value) pending virtual timers
        self._sleepers: List[Tuple[float, int, "asyncio.Future", Any]] = []
        self._runnable = 0
        self._waited: set = set()
        #: task -> completion future, for :meth:`join`; weak keys so
        #: long runs don't accumulate finished-task entries
        self._completions: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    def now_ms(self) -> float:
        """The current virtual time in milliseconds."""
        return self._now_ms

    def create_future(self) -> "asyncio.Future":
        """Return a fresh future on the running loop."""
        return asyncio.get_running_loop().create_future()

    def fire(self, future: "asyncio.Future", value: Any = None) -> None:
        """Resolve ``future``, synchronously re-marking its waiter runnable.

        The runnable count moves *before* ``set_result`` so the stepper
        never sees a woken-but-uncounted task and advances time over it.
        """
        if future.done():
            return
        if future in self._waited:
            self._waited.discard(future)
            self._runnable += 1
        future.set_result(value)

    def _block_on(self, future: "asyncio.Future") -> None:
        self._waited.add(future)
        self._runnable -= 1

    async def _await_blocked(self, future: "asyncio.Future") -> Any:
        try:
            return await future
        except asyncio.CancelledError:
            if future in self._waited:
                self._waited.discard(future)
                self._runnable += 1
            raise

    async def sleep_until(self, wake_ms: float) -> None:
        """Park until the virtual clock reaches ``wake_ms``."""
        if wake_ms <= self._now_ms:
            return
        future = self.create_future()
        self._seq += 1
        heapq.heappush(self._sleepers, (wake_ms, self._seq, future, None))
        self._block_on(future)
        await self._await_blocked(future)

    async def wait(self, future: "asyncio.Future") -> Any:
        """Park until ``future`` is :meth:`fire`-d; return its value."""
        if future.done():
            return future.result()
        self._block_on(future)
        return await self._await_blocked(future)

    def call_soon(self, fn, *args) -> None:
        """``fn(*args)`` as a spawned one-step task."""

        async def step():
            fn(*args)

        self.spawn(step())

    def call_at(self, wake_ms: float, fn, *args) -> "_OracleTimer":
        """``fn(*args)`` as a spawned task parked on a timer armed now."""
        timer = _OracleTimer(self, self.create_future())
        self._seq += 1
        heapq.heappush(self._sleepers, (wake_ms, self._seq, timer.due, None))

        async def step():
            await self.wait(timer.due)
            if not timer.cancelled:
                fn(*args)

        self.spawn(step())
        return timer

    def spawn(self, coro: Coroutine) -> "asyncio.Task":
        """Run ``coro`` as a task tracked by the runnable accounting.

        Virtual-time callers must :meth:`join` a spawned task rather
        than ``await`` it: a raw task-await leaves the waiter counted
        runnable, freezing the clock.  The completion future is fired
        *inside* the task's own final step, so a joiner is re-marked
        runnable before the stepper can look at the counter.
        """
        completion = self.create_future()

        async def wrapped():
            try:
                return await coro
            finally:
                self._runnable -= 1
                self.fire(completion, None)

        self._runnable += 1
        task = asyncio.get_running_loop().create_task(wrapped())
        self._completions[task] = completion
        return task

    async def join(self, task: "asyncio.Task") -> Any:
        """Wait for a :meth:`spawn`-ed task; return (or raise) its result."""
        completion = self._completions.get(task)
        if completion is not None and not task.done():
            await self.wait(completion)
        return await task

    def _advance(self) -> None:
        """Wake the earliest pending virtual timer."""
        while self._sleepers:
            wake_ms, _, future, value = heapq.heappop(self._sleepers)
            if future.done():
                continue  # a cancelled call_at timer
            if wake_ms > self._now_ms:
                self._now_ms = wake_ms
            self.fire(future, value)
            return
        raise RuntimeError(
            "virtual-time deadlock: every task is blocked but no "
            "virtual timer is pending — a plane coroutine is waiting "
            "on an event nothing will fire"
        )

    async def _drive(self, main: Coroutine) -> Any:
        task = self.spawn(main)
        while not task.done():
            if self._runnable == 0:
                self._advance()
            await asyncio.sleep(0)
        return task.result()

    def execute(self, main: Coroutine) -> Any:
        """Run ``main`` under the stepper on a fresh event loop."""
        return asyncio.run(self._drive(main))


class _OracleTimer:
    """A :meth:`AsyncioVirtualTimeline.call_at` handle.

    ``cancel`` fires the timer's future early, so the stepper skips
    its heap entry without moving the clock and the parked task ends
    without running the callback.
    """

    def __init__(self, timeline: AsyncioVirtualTimeline, due):
        self.timeline = timeline
        self.due = due
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self.timeline.fire(self.due)


TIMELINES = (VirtualTimeline, AsyncioVirtualTimeline)
MODELS = ("resnet50", "vgg16")


def _ms(lo, hi):
    """Milliseconds in [lo, hi]: integer-valued (so events tie) or float."""
    return st.one_of(
        st.integers(min_value=lo, max_value=hi).map(float),
        st.floats(min_value=float(lo), max_value=float(hi)),
    )


@st.composite
def _traces(draw):
    """A Poisson or MMPP trace, optionally floored to whole milliseconds."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    duration_ms = float(draw(st.integers(min_value=100, max_value=1_200)))
    if draw(st.booleans()):
        rate = float(draw(st.integers(min_value=20, max_value=300)))
        trace = synthetic_trace(rate, duration_ms, seed=seed)
    else:
        low = float(draw(st.integers(min_value=5, max_value=60)))
        high = float(draw(st.integers(min_value=100, max_value=600)))
        dwell = float(draw(st.integers(min_value=20, max_value=400)))
        trace = mmpp_trace((low, high), dwell, duration_ms, seed=seed)
    if draw(st.booleans()):
        trace = tuple(
            Request(r.request_id, float(math.floor(r.arrival_ms)))
            for r in trace
        )
    assume(trace)
    return trace, seed


@st.composite
def _pools(draw):
    """One or two pools; at most 8 cores, so they fit on Carmel."""
    count = draw(st.integers(min_value=1, max_value=2))
    return [
        PoolSpec(
            model,
            replicas=draw(st.integers(min_value=1, max_value=2)),
            threads=draw(st.integers(min_value=1, max_value=2)),
            max_batch=draw(st.integers(min_value=1, max_value=6)),
            max_wait_ms=draw(_ms(0, 10)),
        )
        for model in MODELS[:count]
    ]


_ADMISSIONS = st.one_of(
    st.just(AdmissionPolicy()),
    st.integers(min_value=0, max_value=8).map(
        lambda depth: AdmissionPolicy(max_queue_depth=depth)
    ),
    _ms(10, 400).map(lambda ms: AdmissionPolicy(deadline_ms=ms)),
)


def _replay(timeline_cls, trace, seed, pools, admission, controller, mock_ms):
    """Run the plane on a fresh ``timeline_cls``: result and output files."""
    slo_ms = 100.0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        obs = obslib.obs_from_cli(
            out / "live.trace.json", out / "live.metrics.json",
            virtual_time=True,
        )
        plane = ServePlane(
            CARMEL,
            pools,
            timeline_cls(),
            controller=controller,
            admission=admission,
            obs=obs,
            mock_service_ms=mock_ms,
            slo=obslib.SloMonitor(threshold_ms=slo_ms),
        )
        mix = {pool.model: 1.0 for pool in pools}
        result = run_trace(plane, assign_models(trace, mix, seed=seed))
        report = live_report(
            plane,
            result,
            machine_name="carmel",
            isa=CARMEL.isa,
            trace_info={"kind": "property", "requests": len(trace)},
            slo_p99_ms=slo_ms,
        )
        save_report(report, out / "live.json")
        obs.write_outputs()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return result, files


@settings(max_examples=60, deadline=None)
@given(
    traced=_traces(),
    pools=_pools(),
    admission=_ADMISSIONS,
    controller=st.sampled_from(("mock", "sim")),
    mock_ms=_ms(1, 30),
)
def test_plane_runs_identically_on_the_asyncio_oracle(
    traced, pools, admission, controller, mock_ms
):
    trace, seed = traced
    result, files = _replay(
        VirtualTimeline, trace, seed, pools, admission, controller, mock_ms
    )
    oracle, oracle_files = _replay(
        AsyncioVirtualTimeline,
        trace, seed, pools, admission, controller, mock_ms,
    )
    assert result.arrived == len(trace)
    assert len(result.served) + len(result.shed) == len(trace)
    assert result == oracle
    assert sorted(files) == [
        "live.json",
        "live.metrics.json",
        "live.metrics.prom",
        "live.trace.json",
        "live.trace.jsonl",
    ]
    assert files == oracle_files


@pytest.mark.parametrize("timeline_cls", TIMELINES)
class TestLoopEdgeCases:
    def test_same_instant_sleepers_wake_in_registration_order(
        self, timeline_cls
    ):
        # spawn order 0, 1, 2; registration order at t=10 is 1, 2, 0
        timeline = timeline_cls()
        order = []

        async def sleeper(name, first_ms):
            await timeline.sleep_until(first_ms)
            await timeline.sleep_until(10.0)
            order.append((name, timeline.now_ms()))

        async def main():
            tasks = [
                timeline.spawn(sleeper(name, ms))
                for name, ms in ((0, 3.0), (1, 1.0), (2, 2.0))
            ]
            for task in tasks:
                await timeline.join(task)

        timeline.execute(main())
        assert order == [(1, 10.0), (2, 10.0), (0, 10.0)]

    def test_two_fires_in_one_step_wake_in_fire_order(self, timeline_cls):
        timeline = timeline_cls()
        order = []

        async def waiter(name, future):
            order.append((name, await timeline.wait(future)))

        async def main():
            first, second = timeline.create_future(), timeline.create_future()
            # the waiter of `first` parks before the waiter of `second`
            tasks = [
                timeline.spawn(waiter("a", first)),
                timeline.spawn(waiter("b", second)),
            ]
            await timeline.sleep_until(1.0)
            timeline.fire(second, 2)
            timeline.fire(first, 1)
            timeline.fire(first, "ignored: already fired")
            for task in tasks:
                await timeline.join(task)

        timeline.execute(main())
        assert order == [("b", 2), ("a", 1)]

    def test_waiters_of_one_future_wake_in_parking_order(self, timeline_cls):
        timeline = timeline_cls()
        order = []

        async def waiter(name, future):
            await timeline.wait(future)
            order.append(name)

        async def main():
            shared = timeline.create_future()
            tasks = [timeline.spawn(waiter(name, shared)) for name in "abc"]
            await timeline.sleep_until(1.0)
            timeline.fire(shared)
            for task in tasks:
                await timeline.join(task)

        timeline.execute(main())
        assert order == ["a", "b", "c"]

    def test_main_exception_propagates_out_of_execute(self, timeline_cls):
        timeline = timeline_cls()

        async def main():
            await timeline.sleep_until(4.0)
            raise ValueError("main failed at 4 ms")

        with pytest.raises(ValueError, match="main failed at 4 ms"):
            timeline.execute(main())
        assert timeline.now_ms() == 4.0

    def test_join_raises_the_spawned_task_exception(self, timeline_cls):
        timeline = timeline_cls()

        async def worker():
            await timeline.sleep_until(2.0)
            raise KeyError("worker")

        async def main():
            task = timeline.spawn(worker())
            with pytest.raises(KeyError, match="worker"):
                await timeline.join(task)
            return timeline.now_ms()

        assert timeline.execute(main()) == 2.0

    def test_deadlock_is_diagnosed_past_stale_timers(self, timeline_cls):
        # the close timer at 50 ms is cancelled once the fire at 5 ms
        # wins; the loop must skip it and report the deadlock
        timeline = timeline_cls()

        async def main():
            won = timeline.create_future()
            close = timeline.call_at(50.0, timeline.fire, won, "closed")

            def firer():
                close.cancel()
                timeline.fire(won, "won")

            timeline.call_at(5.0, firer)
            assert await timeline.wait(won) == "won"
            await timeline.wait(timeline.create_future())

        with pytest.raises(RuntimeError, match="virtual-time deadlock"):
            timeline.execute(main())
        assert timeline.now_ms() == 5.0

    def test_same_instant_timers_and_sleepers_run_in_seq_order(
        self, timeline_cls
    ):
        # seq order at t=10: c0 (armed by main), s (the sleeper's first
        # step, after main parks), c1 (armed by main at t=5)
        timeline = timeline_cls()
        order = []

        def record(name):
            order.append((name, timeline.now_ms()))

        async def sleeper():
            await timeline.sleep_until(10.0)
            record("s")

        async def main():
            timeline.call_at(10.0, record, "c0")
            task = timeline.spawn(sleeper())
            await timeline.sleep_until(5.0)
            timeline.call_at(10.0, record, "c1")
            await timeline.join(task)
            await timeline.sleep_until(11.0)

        timeline.execute(main())
        assert order == [("c0", 10.0), ("s", 10.0), ("c1", 10.0)]

    def test_call_soon_takes_its_ready_queue_place(self, timeline_cls):
        timeline = timeline_cls()
        order = []

        async def worker(name):
            order.append(name)

        async def main():
            tasks = [timeline.spawn(worker("a"))]
            timeline.call_soon(order.append, "callback")
            tasks.append(timeline.spawn(worker("b")))
            for task in tasks:
                await timeline.join(task)

        timeline.execute(main())
        assert order == ["a", "callback", "b"]

    def test_cancelled_timer_never_runs_nor_moves_the_clock(
        self, timeline_cls
    ):
        timeline = timeline_cls()
        ran = []

        async def main():
            woken = timeline.create_future()
            timeline.call_at(2.0, ran.append, "cancelled").cancel()
            late = timeline.call_at(20.0, ran.append, "late")
            timeline.call_at(8.0, timeline.fire, woken)
            await timeline.wait(woken)
            late.cancel()
            now = timeline.now_ms()
            await timeline.wait(timeline.create_future())
            return now

        with pytest.raises(RuntimeError, match="virtual-time deadlock"):
            timeline.execute(main())
        assert ran == []
        assert timeline.now_ms() == 8.0


class TestVirtualLoopDiagnostics:
    """Misuse and lost failures are named errors, never hangs."""

    def test_unjoined_task_failure_is_the_deadlock_cause(self):
        # a batch task that raises leaves its requests unanswered; the
        # deadlock that follows names the task's error as its cause
        timeline = VirtualTimeline()

        async def batch():
            await timeline.sleep_until(2.0)
            raise ValueError("controller failed")

        async def main():
            timeline.spawn(batch())
            await timeline.wait(timeline.create_future())

        with pytest.raises(RuntimeError, match="deadlock") as info:
            timeline.execute(main())
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "controller failed"

    def test_asyncio_sleep_is_a_type_error(self):
        timeline = VirtualTimeline()

        async def main():
            await asyncio.sleep(0)

        with pytest.raises(TypeError, match="main awaited None"):
            timeline.execute(main())

    def test_asyncio_future_in_a_spawned_task_is_a_type_error(self):
        timeline = VirtualTimeline()
        loop = asyncio.new_event_loop()
        try:

            async def stray():
                await loop.create_future()

            async def main():
                await timeline.join(timeline.spawn(stray()))

            with pytest.raises(TypeError, match="stray awaited <Future"):
                timeline.execute(main())
        finally:
            loop.close()
