"""Admission control: shed load the plane cannot serve in time.

Under an infeasible offered load the only alternatives are unbounded
queue growth (every request eventually blows the SLO) or *load
shedding*: reject at the door, fast, so the requests that are admitted
still complete in time.  :class:`AdmissionPolicy` implements the two
classic gates, evaluated synchronously at arrival:

* **queue depth** — reject when the target pool already holds
  ``max_queue_depth`` undispatched requests (the bounded-queue rule);
* **deadline** — project this request's completion from the pool's
  backlog and the controller's service estimate, and reject when the
  projection misses ``deadline_ms`` (an EDF-style admission test).

A rejected request is answered immediately — HTTP 429 on the live
front door — and counted per reason in the metrics registry, so the
shed rate under a traffic spike is observable, not silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class AdmissionPolicy:
    """The arrival-time admission gates; ``None`` disables a gate."""

    max_queue_depth: Optional[int] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self):
        """Validate gate parameters."""
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any gate is active."""
        return self.max_queue_depth is not None or self.deadline_ms is not None

    def evaluate(
        self, pool, now_ms: float
    ) -> Tuple[Optional[str], dict]:
        """Admit or shed one arrival, with the evidence.

        Returns ``(reason, detail)`` where ``reason`` is ``None`` on
        admit (else the shed reason) and ``detail`` always carries the
        gate inputs — queue depth and (when the deadline gate is armed)
        the latency projection — so the admission trace span records
        *why*, not just *what*.
        """
        depth = pool.queue_depth()
        detail: dict = {"queue_depth": depth}
        if (
            self.max_queue_depth is not None
            and depth >= self.max_queue_depth
        ):
            return "queue_depth", detail
        if self.deadline_ms is not None:
            estimate = pool.estimated_latency_ms(depth + 1)
            detail["estimated_ms"] = estimate
            if estimate > self.deadline_ms:
                return "deadline", detail
        return None, detail

    def describe(self) -> dict:
        """The report block for this policy."""
        return {
            "max_queue_depth": self.max_queue_depth,
            "deadline_ms": self.deadline_ms,
        }


def estimated_latency_ms(
    queued: int,
    replicas: int,
    in_flight: int,
    max_batch: int,
    full_batch_service_ms: float,
) -> float:
    """Project the latency of the last of ``queued`` pending requests.

    Batches to drain: the queue packed into full batches, plus the
    batches already executing.  They drain ``replicas`` at a time, each
    wave taking one full-batch service time — a deliberately simple,
    slightly pessimistic bound (real batches may be smaller and
    faster), which is the right bias for an admission gate.
    """
    batches = math.ceil(queued / max_batch) + in_flight
    waves = math.ceil(batches / max(replicas, 1))
    return waves * full_batch_service_ms


def parse_admission_spec(spec: str, parse_duration_ms) -> AdmissionPolicy:
    """Parse the CLI's ``--admission`` spelling into a policy.

    ``none`` disables both gates; otherwise comma-separated
    ``depth=N`` / ``deadline=DUR`` fields, e.g.
    ``depth=64,deadline=200ms``.  ``parse_duration_ms`` is the CLI's
    duration parser (accepts ``200ms`` / ``0.2s`` / plain ms).
    """
    text = spec.strip().lower()
    if text == "none":
        return AdmissionPolicy()
    depth: Optional[int] = None
    deadline: Optional[float] = None
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad admission spec {spec!r}: expected depth=N and/or "
                "deadline=DUR (or 'none')"
            )
        key, value = (s.strip() for s in part.split("=", 1))
        if key == "depth":
            depth = int(value)
        elif key == "deadline":
            deadline = float(parse_duration_ms(value))
        else:
            raise ValueError(
                f"bad admission spec {spec!r}: unknown key {key!r} "
                "(known: depth, deadline)"
            )
    return AdmissionPolicy(max_queue_depth=depth, deadline_ms=deadline)


__all__ = [
    "AdmissionPolicy",
    "estimated_latency_ms",
    "parse_admission_spec",
]
