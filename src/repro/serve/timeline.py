"""Virtual- and wall-clock schedulers for the serving plane.

The live plane (:mod:`repro.serve.plane`) is ordinary ``async`` code —
coroutines queue, batch, and execute requests — but it never calls
``asyncio.sleep`` or reads a wall clock directly.  Every blocking
operation goes through a *timeline*:

* :class:`WallTimeline` maps the primitives straight onto asyncio —
  real sleeps, real time — for serving actual HTTP traffic.
* :class:`VirtualTimeline` runs the identical coroutines in simulated
  time on its own loop, without asyncio: spawned coroutines are tasks
  on a FIFO ready queue; a task awaiting an unfired future parks on
  it, and ``fire`` re-queues its waiters in parking order.  Sleeps
  register on a heap of ``(wake_ms, seq)`` timers, and the clock
  advances to the earliest live one only when no task is ready, so
  virtual time never passes work already scheduled to run.

Every choice is FIFO or ``(wake_ms, seq)`` order and nothing reads real
time or does I/O, so the sim plane is a deterministic discrete-event
simulation — two runs of the same (trace, config) give byte-identical
reports and traces, in the order asyncio's FIFO ready queue gives
under the same advance rule.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque
from typing import Any, Coroutine, Deque, List, Optional, Tuple

#: the value a deadline-expired :meth:`Timeline.wait_or_deadline` yields
DEADLINE = object()


class WallTimeline:
    """The real-time timeline: primitives map directly onto asyncio."""

    kind = "wall"

    def __init__(self):
        """Anchor ``now_ms`` at construction time."""
        self._t0 = time.perf_counter()  # det: ok DET101 (WallTimeline is the real-time backend)

    def now_ms(self) -> float:
        """Milliseconds since the timeline was created."""
        return (time.perf_counter() - self._t0) * 1e3  # det: ok DET101 (WallTimeline is the real-time backend)

    def create_future(self) -> "asyncio.Future":
        """Return a fresh future on the running loop."""
        return asyncio.get_running_loop().create_future()

    def fire(self, future: "asyncio.Future", value: Any = None) -> None:
        """Resolve ``future`` with ``value`` unless already resolved."""
        if not future.done():
            future.set_result(value)

    async def sleep_until(self, wake_ms: float) -> None:
        """Sleep until the timeline reaches ``wake_ms``."""
        delay = (wake_ms - self.now_ms()) / 1e3
        if delay > 0:
            await asyncio.sleep(delay)

    async def wait(self, future: "asyncio.Future") -> Any:
        """Block until ``future`` resolves; return its value."""
        return await future

    async def wait_or_deadline(
        self, future: "asyncio.Future", deadline_ms: float
    ) -> Any:
        """Wait for ``future`` or the deadline, whichever comes first.

        Returns the future's value, or :data:`DEADLINE` on expiry (the
        future is left pending for its producer to resolve later).
        """
        if future.done():
            return future.result()
        timeout = max(0.0, (deadline_ms - self.now_ms()) / 1e3)
        done, _ = await asyncio.wait((future,), timeout=timeout)
        return future.result() if done else DEADLINE

    def spawn(self, coro: Coroutine) -> "asyncio.Task":
        """Run ``coro`` concurrently as a task."""
        return asyncio.get_running_loop().create_task(coro)

    async def join(self, task: "asyncio.Task") -> Any:
        """Wait for a :meth:`spawn`-ed task; return its result."""
        return await task

    def execute(self, main: Coroutine) -> Any:
        """Run ``main`` to completion on a fresh event loop."""
        return asyncio.run(main)


class _Future:
    """A one-shot event; a task awaiting it unfired parks on it."""

    __slots__ = ("_done", "_value", "_error", "_waiters")

    def __init__(self):
        self._done = False
        self._value: Any = None
        self._error: Optional[Exception] = None
        self._waiters: List["_Task"] = []

    def __await__(self):
        if not self._done:
            yield self
        if self._error is not None:
            raise self._error
        return self._value


class _Task(_Future):
    """A spawned coroutine; fires with its outcome when it ends."""

    __slots__ = ("_coro",)

    def __init__(self, coro: Coroutine):
        super().__init__()
        self._coro = coro


class VirtualTimeline:
    """The simulated-time timeline: a deterministic discrete-event loop."""

    kind = "virtual"

    def __init__(self, start_ms: float = 0.0):
        """Start the virtual clock at ``start_ms``."""
        self._now_ms = start_ms
        self._seq = 0
        #: (wake_ms, seq, future, value) pending virtual timers
        self._sleepers: List[Tuple[float, int, _Future, Any]] = []
        #: tasks ready to run, in the order they became ready
        self._ready: Deque[_Task] = deque()
        self._failure: Optional[Exception] = None  # the last task error

    def now_ms(self) -> float:
        """The current virtual time in milliseconds."""
        return self._now_ms

    def create_future(self) -> _Future:
        """Return a fresh unfired future."""
        return _Future()

    def fire(self, future: _Future, value: Any = None) -> None:
        """Resolve ``future``; queue its waiters in the order they parked."""
        if future._done:
            return
        future._done = True
        future._value = value
        self._ready.extend(future._waiters)

    def _timer(self, wake_ms: float, future: _Future, value: Any) -> _Future:
        """Register a timer firing ``future`` with ``value`` at ``wake_ms``."""
        self._seq += 1
        heapq.heappush(self._sleepers, (wake_ms, self._seq, future, value))
        return future

    async def sleep_until(self, wake_ms: float) -> None:
        """Park until the virtual clock reaches ``wake_ms``."""
        if wake_ms > self._now_ms:
            await self._timer(wake_ms, _Future(), None)

    async def wait(self, future: _Future) -> Any:
        """Park until ``future`` is :meth:`fire`-d; return its value."""
        return await future

    async def wait_or_deadline(
        self, future: _Future, deadline_ms: float
    ) -> Any:
        """Wait for ``future`` or virtual time ``deadline_ms``.

        Returns the fired value, or :data:`DEADLINE` when the deadline
        arrives first; a deadline entry whose future was already fired
        is skipped by :meth:`_advance`, so stale timers are harmless.
        """
        if future._done:
            return future._value
        if deadline_ms <= self._now_ms:
            return DEADLINE
        return await self._timer(deadline_ms, future, DEADLINE)

    def spawn(self, coro: Coroutine) -> _Task:
        """Queue ``coro`` as a task; it starts at the ready queue's head."""
        task = _Task(coro)
        self._ready.append(task)
        return task

    async def join(self, task: _Task) -> Any:
        """Wait for a :meth:`spawn`-ed task; return (or raise) its result."""
        return await task

    def _advance(self) -> None:
        """Wake the earliest pending virtual timer."""
        while self._sleepers:
            wake_ms, _, future, value = heapq.heappop(self._sleepers)
            if future._done:
                continue  # a deadline timer whose wait already fired
            if wake_ms > self._now_ms:
                self._now_ms = wake_ms
            self.fire(future, value)
            return
        raise RuntimeError(
            "virtual-time deadlock: every task is blocked but no "
            "virtual timer is pending — a plane coroutine is waiting "
            "on an event nothing will fire"
        ) from self._failure

    def execute(self, main: Coroutine) -> Any:
        """Run ``main`` to completion; return (or raise) its result."""
        main_task = self.spawn(main)
        ready = self._ready
        while not main_task._done:
            if not ready:
                self._advance()
                continue
            task = ready.popleft()
            try:
                awaited = task._coro.send(None)
            except StopIteration as stop:
                self.fire(task, stop.value)
                continue
            except Exception as error:  # the task's outcome, for join
                task._error = self._failure = error
                self.fire(task)
                continue
            if not isinstance(awaited, _Future):
                raise TypeError(
                    f"{task._coro.__qualname__} awaited {awaited!r}: the "
                    "virtual timeline only schedules its own primitives "
                    "(sleep_until, wait, wait_or_deadline, join)"
                )
            awaited._waiters.append(task)
        if main_task._error is not None:
            raise main_task._error
        return main_task._value


def timeline_for(controller: str):
    """The timeline a controller kind runs on (sim -> virtual)."""
    return VirtualTimeline() if controller == "sim" else WallTimeline()
