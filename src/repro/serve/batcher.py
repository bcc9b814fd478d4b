"""The dynamic batcher and the request-level serving simulation.

Requests queue centrally in arrival order; each of the R replicas is a
server that, whenever it goes idle, coalesces the head of the queue into
one batched inference.  The batch-forming policy is the classic
max-batch-size / max-wait-time rule:

* a batch *closes* as soon as ``max_batch`` requests have arrived, or
  when the oldest queued request has waited ``max_wait_ms`` — whichever
  comes first;
* a replica that frees up *after* the close time dispatches immediately
  with whatever has arrived by then (up to ``max_batch``) — a backlogged
  server never waits on a timer;
* the batch forms on the lowest-index idle replica.

:class:`BatchFormer` is that rule, with no clock of its own; both
:func:`simulate_serving` and the live plane (:mod:`repro.serve.plane`)
drive it.  Requests are served strictly in arrival order and the
batched service time comes from a caller-supplied
``service_time_ms(batch_size)`` (the per-layer executor), so the whole
latency/throughput report is a pure function of (trace, config).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

from repro.obs import Obs, TraceContext, batch_id_for

from .traffic import Request


@dataclass(frozen=True)
class BatchPolicy:
    """The dynamic-batching rule: size cap and waiting-time cap."""

    max_batch: int = 1
    max_wait_ms: float = 0.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )


@dataclass(frozen=True)
class ServedRequest:
    """One request's journey through the server."""

    request: Request
    replica: int
    batch_size: int
    dispatch_ms: float
    completion_ms: float

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency."""
        return self.completion_ms - self.request.arrival_ms


@dataclass(frozen=True)
class ExecutedBatch:
    """One dispatched batch: where, when, how big, how long.

    ``formed_ms`` is the instant the replica became available to the
    head request (``max(replica free, head arrival)``) — forming begins
    there, so member queue-wait ends and batch-wait starts at that
    boundary, mirroring the live plane's definition.
    """

    replica: int
    size: int
    dispatch_ms: float
    service_ms: float
    formed_ms: Optional[float] = None


@dataclass(frozen=True)
class ServingResult:
    """Everything the simulation produced, pre-aggregation."""

    served: Tuple[ServedRequest, ...]
    batches: Tuple[ExecutedBatch, ...]

    @property
    def latencies_ms(self) -> List[float]:
        """Per-request latencies in served order."""
        return [s.latency_ms for s in self.served]

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion."""
        if not self.served:
            return 0.0
        first = min(s.request.arrival_ms for s in self.served)
        last = max(s.completion_ms for s in self.served)
        return last - first

    @property
    def throughput_rps(self) -> float:
        """Served requests per second over the makespan."""
        span = self.makespan_ms
        if span <= 0:
            return 0.0
        return len(self.served) / span * 1000.0

    @property
    def mean_batch(self) -> float:
        """Average dispatched batch size."""
        if not self.batches:
            return 0.0
        return len(self.served) / len(self.batches)


class BatchFormer:
    """The max-batch/max-wait close rule and the replica choice.

    It holds the FIFO ``queue`` of items with an ``arrival_ms``, a heap
    of ``idle`` replica indices and the batch being formed,
    ``forming = (replica, formed_ms)``, and reads no clock.  ``push``
    and ``release`` report whether the event can change what
    :meth:`poll` answers, so a driver asks again only then.
    """

    def __init__(self, replicas: int, policy: BatchPolicy):
        """Start with every replica idle and nothing queued."""
        self.policy = policy
        self.queue: Deque = deque()
        self.idle: List[int] = list(range(replicas))
        self.forming: Optional[Tuple[int, float]] = None

    def push(self, item) -> bool:
        """Queue an arrival; true if a replica is idle or a batch forms."""
        self.queue.append(item)
        return bool(self.idle) or self.forming is not None

    def release(self, replica: int) -> bool:
        """Return a replica to the idle heap; true if work is waiting."""
        heapq.heappush(self.idle, replica)
        return self.forming is None and bool(self.queue)

    def poll(
        self, now_ms: float
    ) -> Union[Tuple[int, float, list], float, None]:
        """Return a batch to dispatch now, the close instant, or ``None``.

        A batch forms on the lowest-index idle replica once the queue is
        not empty, and dispatches as ``(replica, formed_ms, items)``
        when ``max_batch`` items queue or the head has waited
        ``max_wait_ms``; until then ``poll`` returns that close instant.
        ``None`` means wait for an arrival or a release.
        """
        if self.forming is None:
            if not self.queue or not self.idle:
                return None
            self.forming = (heapq.heappop(self.idle), now_ms)
        max_batch = self.policy.max_batch
        close_ms = self.queue[0].arrival_ms + self.policy.max_wait_ms
        if len(self.queue) < max_batch and now_ms < close_ms:
            return close_ms
        replica, formed_ms = self.forming
        self.forming = None
        size = min(max_batch, len(self.queue))
        return replica, formed_ms, [self.queue.popleft() for _ in range(size)]


# event kinds of the offline driver
_ARRIVE, _DONE, _CLOSE = range(3)


def simulate_serving(
    trace: Sequence[Request],
    replicas: int,
    policy: BatchPolicy,
    service_time_ms: Callable[[int], float],
    obs: Optional[Obs] = None,
) -> ServingResult:
    """Run a trace through R replicas under one batching policy.

    ``service_time_ms(b)`` prices one batched inference of size ``b``
    (milliseconds), once per batch.  The executor memoizes per (layer,
    batch) and per batch size, so it sums the layers (53 for
    ResNet-50) once per size and every later call is a lookup.

    A discrete-event loop drives one :class:`BatchFormer` over the next
    arrival, batch completions and the open batch's close, in time
    order and, within one instant, in the order they were scheduled —
    the live plane's virtual timeline order, so the two planes agree
    exactly, replica index included.

    ``obs`` attaches the observability bundle: the simulation emits the
    per-request lifecycle (arrival instant, queued span, batch-execute
    span, completion instant), queue-depth and per-replica
    batch-occupancy counter series into ``obs.tracer`` — all stamped in
    **virtual sim time**, so the trace is a pure function of (trace,
    config) — and aggregate counters/histograms into ``obs.metrics``.
    The default ``None`` takes the zero-overhead path.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    requests = sorted(trace, key=lambda r: (r.arrival_ms, r.request_id))
    former = BatchFormer(replicas, policy)
    served: List[ServedRequest] = []
    batches: List[ExecutedBatch] = []
    # (instant, scheduling order, kind, arrival cursor or replica)
    tick = itertools.count()
    events = [(r.arrival_ms, next(tick), _ARRIVE, 0) for r in requests[:1]]
    close = None  # scheduling order of the pending close; others are stale
    while events:
        now, seq, kind, value = heapq.heappop(events)
        if kind == _ARRIVE:
            while value < len(requests) and requests[value].arrival_ms <= now:
                woken = former.push(requests[value])
                value += 1
            if value < len(requests):  # scheduled before the former reacts
                arrival = requests[value].arrival_ms
                heapq.heappush(events, (arrival, next(tick), _ARRIVE, value))
        elif kind == _DONE:
            woken = former.release(value)
        else:
            woken = seq == close
        if not woken:
            continue
        close = None
        done = []
        decision = former.poll(now)
        while isinstance(decision, tuple):
            replica, formed_ms, items = decision
            size = len(items)
            service = service_time_ms(size)
            if service <= 0:
                raise ValueError(
                    f"service_time_ms({size}) must be positive, "
                    f"got {service}"
                )
            served.extend(
                ServedRequest(
                    request=req,
                    replica=replica,
                    batch_size=size,
                    dispatch_ms=now,
                    completion_ms=now + service,
                )
                for req in items
            )
            batches.append(
                ExecutedBatch(
                    replica=replica,
                    size=size,
                    dispatch_ms=now,
                    service_ms=service,
                    formed_ms=formed_ms,
                )
            )
            done.append((now + service, replica))
            decision = former.poll(now)
        # as in the live plane, the close timer is armed before the
        # dispatched batches start their service timers
        if decision is not None:
            close = next(tick)
            heapq.heappush(events, (decision, close, _CLOSE, 0))
        for completion, replica in done:
            heapq.heappush(events, (completion, next(tick), _DONE, replica))
    result = ServingResult(served=tuple(served), batches=tuple(batches))
    if obs is not None:
        emit_serving_obs(result, obs)
    return result


#: histogram buckets for simulated request latency (milliseconds)
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)

#: trace track ids: 0 is the central queue, replica r is track r + 1
QUEUE_TRACK = 0


def emit_serving_obs(result: ServingResult, obs: Obs) -> None:
    """Derive the trace and metrics of one simulated serving run.

    Every timestamp comes from the simulation itself (milliseconds
    scaled to trace microseconds), never from a wall clock, so two runs
    of the same (trace, config) produce byte-identical exports.  Every
    request event carries its :class:`repro.obs.TraceContext`
    correlation ids (chain ``arrive -> queued -> execute``; no
    admission gate offline) plus the deterministic ``batch_id`` of the
    batch that served it, and batch spans carry their forming instant —
    the same schema the live plane emits, so one analyzer reads both.
    """
    tracer = obs.tracer
    scale = 1e3  # sim milliseconds -> trace microseconds
    replicas = sorted({b.replica for b in result.batches})
    tracer.metadata("process_name", "repro.serve")
    tracer.metadata("thread_name", "queue", tid=QUEUE_TRACK)
    for r in replicas:
        tracer.metadata("thread_name", f"replica {r}", tid=r + 1)

    # served order is batch order (members append consecutively), so
    # a request's batch id falls out of the cumulative batch sizes
    batch_ids = [
        batch_id_for("sim", seq) for seq in range(len(result.batches))
    ]
    request_batch: List[str] = []
    for seq, batch in enumerate(result.batches):
        request_batch.extend([batch_ids[seq]] * batch.size)

    depth_deltas: List[Tuple[float, int, int]] = []
    for order, s in enumerate(result.served):
        arrival = s.request.arrival_ms * scale
        dispatch = s.dispatch_ms * scale
        completion = s.completion_ms * scale
        bid = request_batch[order]
        ctx = TraceContext.for_request(s.request.request_id)
        queued_ctx = ctx.child("queued")
        exec_ctx = queued_ctx.child("execute")
        args = {"request_id": s.request.request_id}
        tracer.instant(
            "arrive", ts_us=arrival, tid=QUEUE_TRACK, args=ctx.args(**args)
        )
        tracer.complete(
            "queued",
            ts_us=arrival,
            dur_us=dispatch - arrival,
            tid=QUEUE_TRACK,
            cat="request",
            args=queued_ctx.args(
                **args, batch_size=s.batch_size, batch_id=bid
            ),
        )
        tracer.instant(
            "complete",
            ts_us=completion,
            tid=s.replica + 1,
            args=exec_ctx.args(**args, batch_id=bid),
        )
        depth_deltas.append((s.request.arrival_ms, order, +1))
        depth_deltas.append((s.dispatch_ms, order, -1))
    for seq, batch in enumerate(result.batches):
        dispatch = batch.dispatch_ms * scale
        tracer.complete(
            "batch",
            ts_us=dispatch,
            dur_us=batch.service_ms * scale,
            tid=batch.replica + 1,
            cat="batch",
            args={
                "size": batch.size,
                "service_ms": batch.service_ms,
                "batch_id": batch_ids[seq],
                "formed_ms": batch.formed_ms,
            },
        )
        occupancy = f"occupancy_r{batch.replica}"
        tracer.counter(occupancy, batch.size, ts_us=dispatch)
        tracer.counter(
            occupancy,
            0,
            ts_us=dispatch + batch.service_ms * scale,
        )

    depth = 0
    max_depth = 0
    for t_ms, _, delta in sorted(depth_deltas):
        depth += delta
        max_depth = max(max_depth, depth)
        tracer.counter("queue_depth", depth, ts_us=t_ms * scale)

    metrics = obs.metrics
    metrics.counter(
        "serve.requests", help="requests served by the simulation"
    ).inc(len(result.served))
    metrics.counter(
        "serve.batches", help="batches dispatched"
    ).inc(len(result.batches))
    metrics.gauge(
        "serve.queue_depth", help="central queue depth (max observed)"
    ).set(max_depth)
    latency = metrics.histogram(
        "serve.latency_ms",
        buckets=LATENCY_BUCKETS_MS,
        help="request latency, arrival to completion",
    )
    for value in result.latencies_ms:
        latency.observe(value)
    batch_hist = metrics.histogram(
        "serve.batch_size",
        buckets=(1, 2, 4, 8, 16, 32, 64),
        help="dispatched batch sizes",
    )
    for batch in result.batches:
        batch_hist.observe(batch.size)
