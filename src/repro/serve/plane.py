"""The live asyncio request plane: admission, pools, batching, HTTP.

This is the running service the offline planner was modelling.  One
:class:`ServePlane` owns per-model replica pools; every request —
injected from an arrival trace or received on the HTTP front door —
passes the same path:

.. code-block:: text

    submit -> admission gate -> pool queue -> batch former -> controller
       |           |                                             |
       |           +-- shed (429, counted per reason)            |
       +------------------- response future <- completion -------+

The plane is written against the timeline interface
(:mod:`repro.serve.timeline`), so the identical code serves real
traffic on the wall clock (``real`` controller) or runs as a
byte-deterministic discrete-event simulation on the virtual clock
(``sim`` controller) — the property the determinism tests and the CI
smoke gate pin down.  Its hot path is timeline callbacks, not
coroutines: a pool's dispatch step, batch start and batch finish are
``call_soon``/``call_at`` callbacks, and :func:`run_trace` injects
arrivals as a chain of ``call_at`` callbacks under one task.  Batch
forming is the offline batcher's own
:class:`repro.serve.batcher.BatchFormer`: with admission disabled, a
sim-mode run reproduces :func:`repro.serve.batcher.simulate_serving`
record for record, replica index included.

Request lifecycle spans, queue-depth series, and shed/admit counters
land in :mod:`repro.obs` when a bundle is attached; the shed counters
are the observable signature of an infeasible SLO.

Every traced event additionally carries a **causal context**
(:class:`repro.obs.TraceContext`): the request's deterministic trace id
plus span/parent ids for each step of the chain
``arrive -> admit|shed -> queued -> execute``, and batch spans carry a
:func:`repro.obs.batch_id_for` id, their forming instant, and the
controller's per-layer attribution — everything the offline analyzer
(``python -m repro.obs analyze``) needs to decompose one request's
latency into admission / queue-wait / batch-wait / service.  When a
:class:`repro.obs.SloMonitor` is attached, completions and sheds feed
its rolling windows, ``GET /slo`` serves the live snapshot, and the
final report embeds it.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.machine import MachineModel
from repro.obs import Obs, SloMonitor, TraceContext, batch_id_for

from .admission import AdmissionPolicy, estimated_latency_ms
from .batcher import LATENCY_BUCKETS_MS, BatchFormer, BatchPolicy
from .controllers import Controller, controller_for
from .executor import ModelExecutor, prewarm_executors
from .report import latency_summary
from .traffic import Request

#: HTTP reason phrases the front door emits
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

#: the front door rejects request bodies larger than this (413)
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class PoolSpec:
    """One model's replica pool: capacity and batching policy."""

    model: str
    replicas: int
    threads: int
    max_batch: int = 8
    max_wait_ms: float = 2.0

    def __post_init__(self):
        """Validate pool shape."""
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        BatchPolicy(self.max_batch, self.max_wait_ms)  # validates both

    @property
    def cores_used(self) -> int:
        """Cores this pool occupies."""
        return self.replicas * self.threads

    def describe(self) -> dict:
        """The report block for this pool."""
        return {
            "model": self.model,
            "replicas": self.replicas,
            "threads": self.threads,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "cores_used": self.cores_used,
        }


@dataclass(frozen=True)
class LiveServed:
    """One admitted request's completed journey through the plane."""

    request_id: int
    model: str
    replica: int
    batch_size: int
    arrival_ms: float
    dispatch_ms: float
    completion_ms: float

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency."""
        return self.completion_ms - self.arrival_ms


@dataclass(frozen=True)
class SheddedRequest:
    """One request rejected at the door, and why."""

    request_id: int
    model: str
    arrival_ms: float
    reason: str


@dataclass(frozen=True)
class LiveBatch:
    """One dispatched batch on one replica.

    ``formed_ms`` is the instant the batch former acquired the replica
    and began holding the batch open — the boundary between a member
    request's queue-wait and its batch-wait.  ``batch_id`` is the
    deterministic causal id member spans reference.
    """

    model: str
    replica: int
    size: int
    dispatch_ms: float
    service_ms: float
    formed_ms: Optional[float] = None
    batch_id: str = ""


class _QueuedRequest:
    """A queued arrival and the future its response resolves."""

    __slots__ = ("request_id", "arrival_ms", "future", "ctx")

    def __init__(
        self,
        request_id: int,
        arrival_ms: float,
        future,
        ctx: Optional[TraceContext] = None,
    ):
        self.request_id = request_id
        self.arrival_ms = arrival_ms
        self.future = future
        self.ctx = ctx


class ReplicaPool:
    """One model's servers: a queue, R replicas, and the batch former.

    The pool drives the offline batcher's
    :class:`repro.serve.batcher.BatchFormer` with timeline callbacks
    only — no task per batch, no coroutine per wake:

    * a wake of the parked pool queues one :meth:`_dispatch` step
      (``call_soon``); the open batch's close instant is a ``call_at``
      that a wake cancels;
    * each batch the former closes starts in its own ``call_soon``
      step, which prices it through ``controller.execute``;
    * the batch finishes in a ``call_at(dispatch + service)``.

    Each callback takes the ready-queue and timer position the
    coroutine step it stands for would, so the schedule is the one the
    offline batcher and the timeline oracle pin.
    """

    def __init__(
        self,
        spec: PoolSpec,
        controller: Controller,
        timeline,
        obs: Optional[Obs] = None,
        track_base: int = 0,
        slo: Optional[SloMonitor] = None,
        on_served: Optional[Callable[[int], None]] = None,
    ):
        """Bind the pool to its controller, timeline, and trace tracks.

        ``on_served(count)`` hears of every finished batch's request
        count, before the finish wakes the pool.
        """
        self.spec = spec
        self.controller = controller
        self.timeline = timeline
        self.obs = obs
        self.slo = slo
        self.on_served = on_served
        self.track_base = track_base  # queue track; replica r is base+1+r
        self.former = BatchFormer(
            spec.replicas, BatchPolicy(spec.max_batch, spec.max_wait_ms)
        )
        self.closing = False
        self.served: List[LiveServed] = []
        self.batches: List[LiveBatch] = []
        self._parked = False  # no dispatch step queued: a wake queues one
        self._close_timer = None  # the open batch's close callback
        self._drained = None  # fired once closing and nothing is left
        self._full_batch_ms: Optional[float] = None  # cached at start
        self._batch_seq = 0  # dispatch sequence, names batch ids

    @property
    def in_flight(self) -> int:
        """Batches dispatched to a replica and not yet finished."""
        forming = 0 if self.former.forming is None else 1
        return self.spec.replicas - len(self.former.idle) - forming

    # -- admission inputs ---------------------------------------------

    def queue_depth(self) -> int:
        """Undispatched requests currently queued."""
        return len(self.former.queue)

    def estimated_latency_ms(self, queued: int) -> float:
        """Projected latency of the last of ``queued`` pending requests."""
        return estimated_latency_ms(
            queued,
            self.spec.replicas,
            self.in_flight,
            self.spec.max_batch,
            self._full_batch_ms,
        )

    # -- the request path ---------------------------------------------

    def start(self) -> None:
        """Queue the first dispatch step; cache the full-batch price."""
        self._full_batch_ms = self.controller.service_estimate_ms(
            self.spec.max_batch
        )
        self._drained = self.timeline.create_future()
        self.timeline.call_soon(self._dispatch)

    def submit(self, item: _QueuedRequest) -> None:
        """Enqueue one admitted arrival; wake the pool if it acts."""
        woken = self.former.push(item)
        self._emit_queue_depth()
        if woken:
            self._fire_wake()

    async def close(self) -> None:
        """Drain and stop: returns once nothing is left to serve."""
        self.closing = True
        self._fire_wake()
        if self._drained is not None:
            await self.timeline.wait(self._drained)

    def _fire_wake(self) -> None:
        if self._parked:
            self._parked = False
            if self._close_timer is not None:
                self._close_timer.cancel()
                self._close_timer = None
            self.timeline.call_soon(self._dispatch)

    def _close_due(self) -> None:
        self._parked = False
        self._close_timer = None
        self._dispatch()

    def _dispatch(self) -> None:
        """Start every batch the former closes now, then park."""
        timeline = self.timeline
        while True:
            decision = self.former.poll(timeline.now_ms())
            if not isinstance(decision, tuple):
                break
            self._emit_queue_depth()
            timeline.call_soon(self._start_batch, *decision)
        if self.closing and not self.former.queue and not self.in_flight:
            timeline.fire(self._drained)  # closing, fully drained
            return
        self._parked = True
        if decision is not None:
            self._close_timer = timeline.call_at(decision, self._close_due)

    def _start_batch(
        self, replica: int, formed_ms: float, items: List[_QueuedRequest]
    ) -> None:
        """Price one closed batch; its finish is due after the service."""
        seq = self._batch_seq
        self._batch_seq += 1
        dispatch_ms = self.timeline.now_ms()
        pricing = self.controller.execute(len(items))
        try:
            pricing.send(None)
        except StopIteration as priced:
            service_ms = priced.value
        else:
            pricing.close()
            raise TypeError(
                f"{type(self.controller).__name__}.execute suspended: a "
                "controller returns the service ms without awaiting; "
                "the pool takes that time on its timeline"
            )
        self.timeline.call_at(
            dispatch_ms + service_ms,
            self._finish_batch,
            LiveBatch(
                model=self.spec.model,
                replica=replica,
                size=len(items),
                dispatch_ms=dispatch_ms,
                service_ms=service_ms,
                formed_ms=formed_ms,
                batch_id=batch_id_for(self.spec.model, seq),
            ),
            items,
        )

    def _finish_batch(
        self, batch: LiveBatch, items: List[_QueuedRequest]
    ) -> None:
        """Answer a served batch's requests and free its replica."""
        completion_ms = self.timeline.now_ms()
        self.batches.append(batch)
        for item in items:
            record = LiveServed(
                request_id=item.request_id,
                model=self.spec.model,
                replica=batch.replica,
                batch_size=batch.size,
                arrival_ms=item.arrival_ms,
                dispatch_ms=batch.dispatch_ms,
                completion_ms=completion_ms,
            )
            self.served.append(record)
            if self.slo is not None:
                self.slo.record_completion(
                    completion_ms, completion_ms - item.arrival_ms
                )
            self.timeline.fire(item.future, record)
        if self.on_served is not None:
            self.on_served(batch.size)
        if self.former.release(batch.replica) or self.closing:
            self._fire_wake()
        self._emit_batch_obs(batch, items, completion_ms)

    # -- observability ------------------------------------------------

    def _emit_queue_depth(self) -> None:
        if self.obs is None or not self.obs.tracer.enabled:
            return
        self.obs.tracer.counter(
            f"queue_depth_{self.spec.model}",
            len(self.former.queue),
            ts_us=self.timeline.now_ms() * 1e3,
            tid=self.track_base,
        )

    def _emit_batch_obs(
        self,
        batch: LiveBatch,
        items: List[_QueuedRequest],
        completion_ms: float,
    ) -> None:
        if self.obs is None:
            return
        metrics = self.obs.metrics
        metrics.counter(
            "serve.live.completed", help="requests completed by the plane"
        ).inc(len(items))
        metrics.histogram(
            "serve.live.batch_size",
            buckets=(1, 2, 4, 8, 16, 32, 64),
            help="live dispatched batch sizes",
        ).observe(batch.size)
        latency = metrics.histogram(
            "serve.live.latency_ms",
            buckets=LATENCY_BUCKETS_MS,
            help="live request latency, arrival to completion",
        )
        for item in items:
            latency.observe(completion_ms - item.arrival_ms)
        tracer = self.obs.tracer
        if not tracer.enabled:
            return
        scale = 1e3  # plane milliseconds -> trace microseconds
        replica_track = self.track_base + 1 + batch.replica
        batch_args = {
            "size": batch.size,
            "service_ms": batch.service_ms,
            "batch_id": batch.batch_id,
            "model": batch.model,
            "formed_ms": batch.formed_ms,
        }
        layers = self.controller.layer_breakdown_ms(batch.size)
        if layers is not None:
            batch_args["layers"] = layers
        tracer.complete(
            "batch",
            ts_us=batch.dispatch_ms * scale,
            dur_us=batch.service_ms * scale,
            tid=replica_track,
            cat="batch",
            args=batch_args,
        )
        for item in items:
            # re-derive the causal chain from the stored root context:
            # arrive(root) -> admit -> queued -> execute
            queued_ctx = exec_ctx = None
            if item.ctx is not None:
                queued_ctx = item.ctx.child("admit").child("queued")
                exec_ctx = queued_ctx.child("execute")
            args = {"request_id": item.request_id}
            queued_args = {
                **args, "batch_size": batch.size,
                "batch_id": batch.batch_id,
            }
            tracer.complete(
                "queued",
                ts_us=item.arrival_ms * scale,
                dur_us=(batch.dispatch_ms - item.arrival_ms) * scale,
                tid=self.track_base,
                cat="request",
                args=(
                    queued_ctx.args(**queued_args)
                    if queued_ctx is not None
                    else queued_args
                ),
            )
            exec_args = {**args, "batch_id": batch.batch_id}
            tracer.instant(
                "complete",
                ts_us=completion_ms * scale,
                tid=replica_track,
                args=(
                    exec_ctx.args(**exec_args)
                    if exec_ctx is not None
                    else exec_args
                ),
            )


class ServePlane:
    """Per-model replica pools behind one admission gate.

    Construct, :meth:`start`, feed arrivals through :meth:`submit` (or
    the HTTP front door / :func:`run_trace`), await the returned
    response futures, then :meth:`close`.
    """

    def __init__(
        self,
        machine: MachineModel,
        pools: Sequence[PoolSpec],
        timeline,
        controller: str = "sim",
        admission: AdmissionPolicy = AdmissionPolicy(),
        use_tuned: bool = False,
        obs: Optional[Obs] = None,
        mock_service_ms: float = 1.0,
        slo: Optional[SloMonitor] = None,
    ):
        """Build pools, controllers, and executors on ``machine``."""
        if not pools:
            raise ValueError("the plane needs at least one pool")
        models = [spec.model for spec in pools]
        if len(set(models)) != len(models):
            raise ValueError(f"duplicate pool models: {models}")
        cores_used = sum(spec.cores_used for spec in pools)
        if cores_used > machine.cores:
            raise ValueError(
                f"pools use {cores_used} cores but {machine.name} has "
                f"{machine.cores} — shrink replicas x threads"
            )
        self.machine = machine
        self.timeline = timeline
        self.controller_kind = controller
        self.admission = admission
        self.obs = obs
        self.slo = slo
        self.pools: Dict[str, ReplicaPool] = {}
        total_replicas = sum(spec.replicas for spec in pools)
        executors = []
        track_base = 0
        for spec in pools:
            executor = None
            if controller in ("sim", "real"):
                # every pool's replicas share the socket's bandwidth:
                # price each against the fleet-wide replica count
                executor = ModelExecutor(
                    machine,
                    model=spec.model,
                    threads=spec.threads,
                    replicas=total_replicas,
                    use_tuned=use_tuned,
                )
                executors.append((executor, spec.max_batch))
            ctrl = controller_for(
                controller,
                executor=executor,
                mock_service_ms=mock_service_ms,
            )
            self.pools[spec.model] = ReplicaPool(
                spec, ctrl, timeline, obs=obs, track_base=track_base,
                slo=slo, on_served=self._served,
            )
            track_base += spec.replicas + 1
        if executors:
            # fill every (layer, batch <= cap) memo in one vectorized
            # sweep so the event loop never prices lazily mid-run
            batches = range(1, max(cap for _, cap in executors) + 1)
            prewarm_executors([ex for ex, _ in executors], list(batches))
        #: model -> its (name, help) shed and admission counters
        self._model_counters = {
            model: (
                (f"serve.live.{model}.shed", f"{model} sheds"),
                (f"serve.live.{model}.admitted", f"{model} admissions"),
            )
            for model in models
        }
        self.shed: List[SheddedRequest] = []
        self.arrived = 0
        self._next_id = 0
        self._unserved = 0  # admitted requests not yet served
        self._all_served = None  # fired when _unserved drops to zero

    def start(self) -> None:
        """Name the trace tracks and start every pool's dispatch."""
        if self.obs is not None and self.obs.tracer.enabled:
            tracer = self.obs.tracer
            tracer.metadata("process_name", "repro.serve.live")
            for pool in self.pools.values():
                base = pool.track_base
                tracer.metadata(
                    "thread_name", f"{pool.spec.model} queue", tid=base
                )
                for r in range(pool.spec.replicas):
                    tracer.metadata(
                        "thread_name",
                        f"{pool.spec.model} replica {r}",
                        tid=base + 1 + r,
                    )
        for pool in self.pools.values():
            pool.start()

    def submit(self, model: str, request_id: Optional[int] = None):
        """Admit or shed one arrival at the current timeline instant.

        Returns the response future (resolves to :class:`LiveServed`)
        on admit, or the :class:`SheddedRequest` on shed — the decision
        is synchronous, so a rejected caller pays nothing but the gate.
        """
        pool = self.pools.get(model)
        if pool is None:
            raise ValueError(
                f"no pool serves model {model!r}; pools: "
                f"{sorted(self.pools)}"
            )
        now_ms = self.timeline.now_ms()
        if request_id is None:
            request_id = self._next_id
        self._next_id = max(self._next_id, request_id) + 1
        self.arrived += 1
        obs = self.obs
        tracing = obs is not None and obs.tracer.enabled
        if obs is not None:
            self._count(
                "serve.live.arrived", "requests that reached the plane"
            )
        ctx = TraceContext.for_request(request_id) if tracing else None
        if tracing:
            # every arrival opens a causal chain, shed or admitted
            obs.tracer.instant(
                "arrive",
                ts_us=now_ms * 1e3,
                tid=pool.track_base,
                args=ctx.args(request_id=request_id, model=model),
            )
        reason, detail = (
            self.admission.evaluate(pool, now_ms)
            if self.admission.enabled
            else (None, {})
        )
        if reason is not None:
            record = SheddedRequest(
                request_id=request_id,
                model=model,
                arrival_ms=now_ms,
                reason=reason,
            )
            self.shed.append(record)
            if self.slo is not None:
                self.slo.record_shed(now_ms)
            if obs is None:
                return record
            self._count("serve.live.shed", "requests rejected at the door")
            self._count(
                f"serve.live.shed.{reason}", f"sheds for reason {reason}"
            )
            self._count(*self._model_counters[model][0])
            if tracing:
                obs.tracer.instant(
                    "shed",
                    ts_us=now_ms * 1e3,
                    tid=pool.track_base,
                    cat="admission",
                    args=ctx.child("shed").args(
                        request_id=request_id, reason=reason, **detail
                    ),
                )
            return record
        future = self.timeline.create_future()
        self._unserved += 1
        pool.submit(_QueuedRequest(request_id, now_ms, future, ctx=ctx))
        if obs is None:
            return future
        self._count("serve.live.admitted", "requests admitted to a queue")
        self._count(*self._model_counters[model][1])
        obs.metrics.gauge(
            "serve.live.queue_depth",
            help="pool queue depth (max observed)",
        ).set(pool.queue_depth())
        if tracing:
            obs.tracer.instant(
                "admit",
                ts_us=now_ms * 1e3,
                tid=pool.track_base,
                cat="admission",
                args=ctx.child("admit").args(request_id=request_id, **detail),
            )
        return future

    def fire_when_served(self, future) -> None:
        """Fire ``future`` once every request admitted so far is served.

        At once when nothing is outstanding, else in the finish step
        of the batch that serves the last one.
        """
        if self._unserved:
            self._all_served = future
        else:
            self.timeline.fire(future)

    def _served(self, count: int) -> None:
        self._unserved -= count
        if not self._unserved and self._all_served is not None:
            self.timeline.fire(self._all_served)
            self._all_served = None

    async def close(self) -> None:
        """Drain every pool (all responses must be resolved)."""
        for pool in self.pools.values():
            await pool.close()

    def _count(self, name: str, help_text: str) -> None:
        """Increment one counter of the attached obs bundle."""
        self.obs.metrics.counter(name, help=help_text).inc()

    # -- the HTTP front door ------------------------------------------

    async def handle_http(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, str]:
        """Route one HTTP request: ``(status, content type, body)``."""
        if method == "GET" and path == "/healthz":
            return 200, "application/json", json.dumps(
                {"pools": sorted(self.pools), "status": "ok"},
                sort_keys=True,
            )
        if method == "GET" and path == "/metrics":
            if self.obs is None:
                return 404, "text/plain", "metrics are not enabled\n"
            return 200, "text/plain", self.obs.metrics.prometheus_text()
        if method == "GET" and path == "/slo":
            if self.slo is None:
                return 404, "application/json", json.dumps(
                    {"error": "the SLO monitor is not enabled"}
                )
            return 200, "application/json", json.dumps(
                self.slo.snapshot(self.timeline.now_ms()), sort_keys=True
            )
        if method == "POST" and path == "/v1/infer":
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError:
                return 400, "application/json", json.dumps(
                    {"error": "body is not JSON"}
                )
            model = payload.get("model")
            if model is None and len(self.pools) == 1:
                model = next(iter(self.pools))
            if model not in self.pools:
                return 400, "application/json", json.dumps(
                    {"error": f"unknown model {model!r}",
                     "pools": sorted(self.pools)},
                    sort_keys=True,
                )
            outcome = self.submit(model)
            if isinstance(outcome, SheddedRequest):
                return 429, "application/json", json.dumps(
                    {"error": "shed", "reason": outcome.reason,
                     "request_id": outcome.request_id},
                    sort_keys=True,
                )
            served: LiveServed = await self.timeline.wait(outcome)
            return 200, "application/json", json.dumps(
                {
                    "request_id": served.request_id,
                    "model": served.model,
                    "replica": served.replica,
                    "batch_size": served.batch_size,
                    "latency_ms": served.latency_ms,
                },
                sort_keys=True,
            )
        return 404, "application/json", json.dumps({"error": "not found"})

    async def handle_client(self, reader, writer) -> None:
        """One HTTP/1.1 connection on the stdlib asyncio server."""
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                writer.close()
                return
            method, path = parts[0], parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            if length > MAX_BODY_BYTES:
                # reject before reading: an oversized body never
                # reaches the router or the admission gate
                status, ctype, payload = 413, "application/json", json.dumps(
                    {"error": "body too large",
                     "limit_bytes": MAX_BODY_BYTES},
                    sort_keys=True,
                )
            else:
                body = await reader.readexactly(length) if length else b""
                status, ctype, payload = await self.handle_http(
                    method, path, body
                )
            data = payload.encode()
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(data)}\r\n"
                "Connection: close\r\n"
            )
            if status == 429:
                head += "Retry-After: 1\r\n"
            writer.write(head.encode("latin-1") + b"\r\n" + data)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def assign_models(
    trace: Sequence[Request],
    mix: Dict[str, float],
    seed: int = 0,
) -> Tuple[Tuple[str, Request], ...]:
    """Tag each trace request with a model drawn from a weighted mix.

    Weights need not sum to one; a seeded ``random.Random`` makes the
    assignment deterministic, and a single-model mix skips the RNG so
    the common case stays trivially reproducible.
    """
    if not mix:
        raise ValueError("the request mix needs at least one model")
    for model, weight in mix.items():
        if weight <= 0:
            raise ValueError(
                f"mix weight for {model!r} must be positive, got {weight}"
            )
    models = sorted(mix)
    if len(models) == 1:
        return tuple((models[0], req) for req in trace)
    weights = [mix[m] for m in models]
    rng = random.Random(f"mix:{seed}")
    chosen = rng.choices(models, weights=weights, k=len(trace))
    return tuple(zip(chosen, trace))


@dataclass
class LiveResult:
    """Everything one live run produced, pre-report."""

    served: Tuple[LiveServed, ...]
    shed: Tuple[SheddedRequest, ...]
    batches: Tuple[LiveBatch, ...]
    arrived: int

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion over every pool."""
        if not self.served:
            return 0.0
        first = min(s.arrival_ms for s in self.served)
        last = max(s.completion_ms for s in self.served)
        return last - first


def _collect(plane: ServePlane) -> LiveResult:
    """Gather every pool's served requests and batches, time-ordered."""
    served = []
    batches = []
    for model in sorted(plane.pools):
        pool = plane.pools[model]
        served.extend(pool.served)
        batches.extend(pool.batches)
    served.sort(key=lambda s: (s.completion_ms, s.request_id))
    batches.sort(key=lambda b: (b.dispatch_ms, b.model, b.replica))
    return LiveResult(
        served=tuple(served),
        shed=tuple(plane.shed),
        batches=tuple(batches),
        arrived=plane.arrived,
    )


def run_trace(
    plane: ServePlane,
    arrivals: Sequence[Tuple[str, Request]],
) -> LiveResult:
    """Drive ``plane`` end-to-end with a model-tagged arrival trace.

    The injector replays each arrival at its trace time on the plane's
    timeline — virtual for the sim controller (the run completes in
    milliseconds of real time however long the trace is), wall for the
    real controller — as a chain of ``call_at`` callbacks, one per
    distinct arrival instant.  The run's one task waits for the last
    admitted request to be served, then drains the pools.
    """
    if not arrivals:
        raise ValueError(
            "trace is empty — raise the arrival rate or duration "
            "(or check the replayed CSV)"
        )
    timeline = plane.timeline
    count = len(arrivals)

    async def _main():
        served = timeline.create_future()

        def inject(index: int) -> None:
            now_ms = timeline.now_ms()
            while index < count:
                model, request = arrivals[index]
                if request.arrival_ms > now_ms:
                    timeline.call_at(request.arrival_ms, inject, index)
                    return
                plane.submit(model, request.request_id)
                index += 1
            plane.fire_when_served(served)

        plane.start()
        inject(0)
        await timeline.wait(served)
        await plane.close()

    plane.timeline.execute(_main())
    return _collect(plane)


#: how often :func:`run_http` looks at its ``stop`` event, in ms
STOP_POLL_MS = 5.0


def run_http(
    plane: ServePlane,
    host: str = "127.0.0.1",
    port: int = 8080,
    duration_ms: Optional[float] = None,
    ready=None,
    stop: Optional[threading.Event] = None,
) -> LiveResult:
    """Serve the HTTP front door until ``duration_ms`` or ``stop`` ends it.

    Serving stops at whichever comes first; with neither it runs
    forever.  Wall-timeline only (a virtual clock cannot pace a
    socket).  The optional ``ready`` callback receives the bound
    ``(host, port)`` once the server is listening — the tests use it
    to connect.  ``stop`` lets another thread end the run early: the
    loop checks it every :data:`STOP_POLL_MS` milliseconds, then closes
    the server and drains the plane as at the deadline.
    """
    if plane.timeline.kind == "virtual":
        raise ValueError(
            "the HTTP front door needs a wall timeline — virtual time "
            "cannot pace sockets; use controller 'real' or 'mock'"
        )

    async def _main():
        plane.start()
        server = await asyncio.start_server(plane.handle_client, host, port)
        try:  # a failed callback cancels this task: release the port
            bound = server.sockets[0].getsockname()[:2]
            if ready is not None:
                ready(bound)
            if duration_ms is None and stop is None:  # pragma: no cover
                await asyncio.Event().wait()  # interactive: serve forever
            deadline = math.inf
            if duration_ms is not None:
                deadline = plane.timeline.now_ms() + duration_ms
            poll_ms = math.inf if stop is None else STOP_POLL_MS
            while stop is None or not stop.is_set():
                now = plane.timeline.now_ms()
                if now >= deadline:
                    break
                await plane.timeline.sleep_until(min(deadline, now + poll_ms))
        finally:
            server.close()
        await server.wait_closed()
        await plane.close()

    plane.timeline.execute(_main())
    return _collect(plane)


def live_report(
    plane: ServePlane,
    result: LiveResult,
    machine_name: str,
    isa: str,
    trace_info: dict,
    slo_p99_ms: float,
) -> dict:
    """The deterministic JSON report of one live run.

    Every number derives from timeline instants — virtual for the sim
    controller, so two identical runs serialize byte-identically
    (sorted keys via :func:`repro.serve.report.save_report`).
    """
    per_model = {}
    for model in sorted(plane.pools):
        pool = plane.pools[model]
        latencies = [s.latency_ms for s in pool.served]
        shed = [s for s in result.shed if s.model == model]
        reasons: Dict[str, int] = {}
        for record in shed:
            reasons[record.reason] = reasons.get(record.reason, 0) + 1
        per_model[model] = {
            "pool": pool.spec.describe(),
            "admitted": len(pool.served),
            "shed": len(shed),
            "shed_reasons": dict(sorted(reasons.items())),
            "completed": len(pool.served),
            "batches": len(pool.batches),
            "mean_batch": (
                len(pool.served) / len(pool.batches)
                if pool.batches
                else 0.0
            ),
            "latency": latency_summary(latencies),
        }
    latencies = [s.latency_ms for s in result.served]
    makespan = result.makespan_ms
    admitted = len(result.served)
    totals = {
        "arrived": result.arrived,
        "admitted": admitted,
        "shed": len(result.shed),
        "shed_rate": (
            len(result.shed) / result.arrived if result.arrived else 0.0
        ),
        "completed": admitted,
        "batches": len(result.batches),
        "throughput_rps": (
            admitted / makespan * 1e3 if makespan > 0 else 0.0
        ),
        "makespan_ms": makespan,
        "latency": latency_summary(latencies),
    }
    slo_met = bool(
        latencies and totals["latency"]["p99_ms"] <= slo_p99_ms
    )
    report = {
        "plane": {
            "controller": plane.controller_kind,
            "timeline": plane.timeline.kind,
            "admission": plane.admission.describe(),
            "pools": [
                plane.pools[m].spec.describe() for m in sorted(plane.pools)
            ],
        },
        "machine": machine_name,
        "isa": isa,
        "trace": trace_info,
        "slo_p99_ms": slo_p99_ms,
        "slo_met": slo_met,
        "totals": totals,
        "per_model": per_model,
    }
    if plane.slo is not None:
        # the rolling-window view at the final timeline instant —
        # deterministic under the virtual clock
        report["slo_monitor"] = plane.slo.snapshot(plane.timeline.now_ms())
    return report
