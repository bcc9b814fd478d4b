"""Pluggable executor controllers: the real / sim / mock pattern.

A controller is the thing a replica pool hands a formed batch to; its
single job is to *price* the batch: :meth:`Controller.execute` returns
the service milliseconds, and the pool takes that time on its timeline
(a ``call_at`` at dispatch + service).  ``execute`` stays a coroutine
function, but it must return without suspending — the pool drives it
with a single ``send`` and raises ``TypeError`` if it awaits anything.
Three implementations share the interface, so the whole plane —
admission, queueing, batching, report — runs identically against any
of them:

* :class:`SimController` prices the batch with the exact batched
  threaded cost model (:class:`repro.serve.executor.ModelExecutor`);
  on the **virtual** timeline the plane becomes a byte-deterministic
  discrete-event simulation, testable without hardware.
* :class:`RealController` prices with the same model on the **wall**
  timeline, so the pool waits the service time out in real time,
  pacing a live HTTP deployment to the hardware the model describes.
* :class:`MockController` returns scripted constant-plus-linear service
  times — the unit-test double, with no model in the loop.

``controller_for`` builds one from its CLI name.
"""

from __future__ import annotations

from typing import Dict, Optional

from .executor import ModelExecutor

#: the CLI names of the available controller kinds
CONTROLLER_KINDS = ("sim", "real", "mock")


class Controller:
    """The executor-controller interface a replica pool drives."""

    kind = "abstract"

    def service_estimate_ms(self, batch: int) -> float:
        """Predicted service milliseconds of a size-``batch`` dispatch.

        Admission control uses this estimate to project queue drain
        times; for model-backed controllers it is exact.
        """
        raise NotImplementedError

    async def execute(self, batch: int) -> float:
        """Run one batch: return its service ms without suspending.

        The pool, not the controller, occupies the timeline for the
        returned time.
        """
        return self.service_estimate_ms(batch)

    def layer_breakdown_ms(self, batch: int) -> Optional[Dict[str, float]]:
        """Per-layer millisecond attribution of one batch, if priced.

        ``None`` when the controller has no layer model (the mock);
        model-backed controllers return the executor's breakdown, which
        the batch trace span carries for offline analysis.
        """
        return None


class SimController(Controller):
    """Virtual-time execution priced by the batched threaded cost model."""

    kind = "sim"

    def __init__(self, executor: ModelExecutor):
        """Wrap ``executor``, one replica's model view."""
        self.executor = executor

    def service_estimate_ms(self, batch: int) -> float:
        """The exact modelled milliseconds of one batched forward pass."""
        return self.executor.batch_time_ms(batch)

    def layer_breakdown_ms(self, batch: int) -> Optional[Dict[str, float]]:
        """The executor's per-layer attribution (sums to the estimate)."""
        return self.executor.layer_breakdown_ms(batch)


class RealController(SimController):
    """Wall-time execution paced to the same model.

    Identical pricing to :class:`SimController`; on the wall timeline
    the pool waits the service time out, so a live HTTP front door
    exhibits the latency the model predicts for the target machine —
    the stand-in for dispatching to hardware.
    """

    kind = "real"


class MockController(Controller):
    """Scripted service times for tests: ``base + per_item * batch``."""

    kind = "mock"

    def __init__(self, base_ms: float = 1.0, per_item_ms: float = 0.0):
        """Serve every batch in ``base_ms + per_item_ms * batch``."""
        if base_ms <= 0 and per_item_ms <= 0:
            raise ValueError(
                "mock service time must be positive: got "
                f"base_ms={base_ms}, per_item_ms={per_item_ms}"
            )
        self.base_ms = base_ms
        self.per_item_ms = per_item_ms

    def service_estimate_ms(self, batch: int) -> float:
        """The scripted affine service time."""
        return self.base_ms + self.per_item_ms * batch


def controller_for(
    name: str,
    executor: Optional[ModelExecutor] = None,
    mock_service_ms: float = 1.0,
) -> Controller:
    """Build a controller from its CLI name.

    ``sim`` and ``real`` need the pool's :class:`ModelExecutor`;
    ``mock`` takes its base service time from ``mock_service_ms``.
    """
    if name == "sim":
        if executor is None:
            raise ValueError("sim controller needs a ModelExecutor")
        return SimController(executor)
    if name == "real":
        if executor is None:
            raise ValueError("real controller needs a ModelExecutor")
        return RealController(executor)
    if name == "mock":
        return MockController(base_ms=mock_service_ms)
    raise ValueError(
        f"unknown controller {name!r}; known: {', '.join(CONTROLLER_KINDS)}"
    )
