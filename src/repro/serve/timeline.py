"""Virtual- and wall-clock schedulers for the serving plane.

The live plane (:mod:`repro.serve.plane`) never calls
``asyncio.sleep`` or reads a wall clock directly.  Everything that
takes time goes through a *timeline*, whose primitives come in two
shapes: coroutine ones (``spawn``, ``sleep_until``, ``wait``, and
``await task`` on a spawned task) for code that reads best as a
straight line, and callback ones (``call_soon``, ``call_at``) for the
plane's hot path, where a step per batch or per arrival would cost a
coroutine wake each.

* :class:`WallTimeline` maps the primitives straight onto asyncio —
  real sleeps, real time, ``loop.call_soon``/``loop.call_later`` — for
  serving actual HTTP traffic.  asyncio only logs an exception raised
  in a callback, so the timeline catches it, cancels the main task and
  raises it from :meth:`WallTimeline.execute`.
* :class:`VirtualTimeline` runs the identical code in simulated time
  on its own loop, without asyncio.  Spawned coroutines and
  ``call_soon`` callbacks share one FIFO ready queue; a task awaiting
  an unfired future parks on it, and ``fire`` re-queues its waiters in
  parking order.  Sleeps and ``call_at`` callbacks are timers on one
  heap of ``(wake_ms, seq)`` entries, ``seq`` taken when the timer is
  armed; a due timer joins the ready queue, a cancelled one is skipped
  without moving the clock.  The clock advances to the earliest live
  timer only when nothing is ready, so virtual time never passes work
  already scheduled to run.  An exception raised in a callback leaves
  :meth:`VirtualTimeline.execute` at once.

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
from typing import Any, Callable, Coroutine, Deque, List, Optional, Tuple


class WallTimeline:
    """The real-time timeline: primitives map directly onto asyncio."""

    kind = "wall"

    def __init__(self):
        """Anchor ``now_ms`` at construction time."""
        self._t0 = time.perf_counter()  # det: ok DET101 (WallTimeline is the real-time backend)
        self._main: Optional["asyncio.Task"] = None  # execute's task
        self._error: Optional[Exception] = None  # the first callback error

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

    def call_soon(self, fn: Callable, *args) -> None:
        """Queue ``fn(*args)`` on the running loop."""
        asyncio.get_running_loop().call_soon(self._guarded, fn, args)

    def call_at(self, wake_ms: float, fn: Callable, *args):
        """Run ``fn(*args)`` at ``wake_ms``; the handle has ``cancel()``."""
        delay = max(0.0, (wake_ms - self.now_ms()) / 1e3)
        return asyncio.get_running_loop().call_later(
            delay, self._guarded, fn, args
        )

    def _guarded(self, fn: Callable, args: tuple) -> None:
        """Run a callback; its exception ends :meth:`execute`."""
        try:
            fn(*args)
        except Exception as error:
            if self._main is None:
                raise  # not under execute: asyncio reports it
            if self._error is None:
                self._error = error
                self._main.cancel()

    async def sleep_until(self, wake_ms: float) -> None:
        """Sleep until the timeline reaches ``wake_ms``."""
        delay = (wake_ms - self.now_ms()) / 1e3
        if delay > 0:
            await asyncio.sleep(delay)

    async def wait(self, future: "asyncio.Future") -> Any:
        """Block until ``future`` resolves; return its value."""
        return await future

    def spawn(self, coro: Coroutine) -> "asyncio.Task":
        """Run ``coro`` concurrently as a task."""
        return asyncio.get_running_loop().create_task(coro)

    def execute(self, main: Coroutine) -> Any:
        """Run ``main`` to completion on a fresh event loop.

        Returns its result or raises its exception; the first exception
        raised in a callback cancels ``main`` and is raised instead.
        """

        async def run():
            self._main = asyncio.ensure_future(main)
            try:
                result = await self._main
            except asyncio.CancelledError:
                if self._error is None:
                    raise
                result = None
            finally:
                self._main = None
            if self._error is not None:
                raise self._error
            return result

        self._error = None
        return asyncio.run(run())


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


class _Timer:
    """An armed :meth:`VirtualTimeline.call_at`; done once due or cancelled."""

    __slots__ = ("_done", "_call")

    def __init__(self, call: Tuple[Callable, tuple]):
        self._done = False
        self._call = call

    def cancel(self) -> None:
        """Never run the callback; its heap entry is skipped."""
        self._done = True


class VirtualTimeline:
    """The simulated-time timeline: a deterministic discrete-event loop."""

    kind = "virtual"

    def __init__(self, start_ms: float = 0.0):
        """Start the virtual clock at ``start_ms``."""
        self._now_ms = start_ms
        self._seq = 0
        #: (wake_ms, seq, timer) pending virtual timers
        self._timers: List[Tuple[float, int, _Timer]] = []
        #: tasks and ``(fn, args)`` callbacks ready to run, in the
        #: order they became ready
        self._ready: Deque = deque()
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

    def call_soon(self, fn: Callable, *args) -> None:
        """Queue ``fn(*args)`` at the ready queue's tail."""
        self._ready.append((fn, args))

    def call_at(self, wake_ms: float, fn: Callable, *args) -> _Timer:
        """Arm a ``(wake_ms, seq)`` timer that queues ``fn(*args)``.

        ``seq`` is taken now, so timers due at one instant run in the
        order they were armed; the returned handle's ``cancel()``
        keeps the callback from ever running.
        """
        self._seq += 1
        timer = _Timer((fn, args))
        heapq.heappush(self._timers, (wake_ms, self._seq, timer))
        return timer

    async def sleep_until(self, wake_ms: float) -> None:
        """Park until the virtual clock reaches ``wake_ms``."""
        if wake_ms > self._now_ms:
            future = _Future()
            self.call_at(wake_ms, self.fire, future)
            await future

    async def wait(self, future: _Future) -> Any:
        """Park until ``future`` is :meth:`fire`-d; return its value."""
        return await future

    def spawn(self, coro: Coroutine) -> _Task:
        """Queue ``coro`` as a task; it starts at the ready queue's head."""
        task = _Task(coro)
        self._ready.append(task)
        return task

    def _advance(self) -> None:
        """Queue the earliest live timer's callback, moving the clock."""
        while self._timers:
            wake_ms, _, timer = heapq.heappop(self._timers)
            if timer._done:
                continue  # cancelled: the clock stays where it is
            timer._done = True
            if wake_ms > self._now_ms:
                self._now_ms = wake_ms
            self._ready.append(timer._call)
            return
        raise RuntimeError(
            "virtual-time deadlock: every task is blocked but no "
            "virtual timer is pending — a plane coroutine is waiting "
            "on an event nothing will fire"
        ) from self._failure

    def execute(self, main: Coroutine) -> Any:
        """Run ``main`` to completion; return (or raise) its result.

        A task's exception is its outcome, raised where the task is
        awaited; a callback's exception propagates out of ``execute`` at
        once.
        """
        main_task = self.spawn(main)
        ready = self._ready
        while not main_task._done:
            if not ready:
                self._advance()
                continue
            task = ready.popleft()
            if task.__class__ is tuple:  # a (fn, args) callback
                fn, args = task
                fn(*args)
                continue
            try:
                awaited = task._coro.send(None)
            except StopIteration as stop:
                self.fire(task, stop.value)
                continue
            except Exception as error:  # the task's outcome, for its awaiter
                task._error = self._failure = error
                self.fire(task)
                continue
            if not isinstance(awaited, _Future):
                raise TypeError(
                    f"{task._coro.__qualname__} awaited {awaited!r}: the "
                    "virtual timeline only schedules its own primitives "
                    "(sleep_until, wait, a spawned task)"
                )
            awaited._waiters.append(task)
        if main_task._error is not None:
            raise main_task._error
        return main_task._value


def timeline_for(controller: str):
    """The timeline a controller kind runs on (sim -> virtual)."""
    return VirtualTimeline() if controller == "sim" else WallTimeline()
