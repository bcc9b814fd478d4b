"""Counters, gauges, and fixed-bucket histograms with two exporters.

A :class:`MetricsRegistry` hands out named instruments and serializes
them deterministically: ``to_json()`` (sorted keys, suitable for
byte-comparison in tests and CI) and ``prometheus_text()`` (the
Prometheus exposition format, so a scrape endpoint or a file sink can
reuse the same registry unchanged).

Histograms keep both fixed bucket counts (for the Prometheus
``_bucket`` series) and the raw observations, so percentiles use the
exact nearest-rank definition of :func:`nearest_rank_percentile`
— every reported quantile is an actual observed value, no
interpolation.  The serving report re-exports that function as
:func:`repro.serve.report.percentile`, so the two report paths can
never disagree.  For million-observation live runs,
``max_observations`` bounds the raw sample with a deterministic
reservoir: percentiles stay exact below the cap and become reservoir
estimates above it (the bucket counts, ``sum``/``count``, and
``min``/``max`` remain exact either way).

The Prometheus exporter escapes ``\\``, newlines, and ``"`` in HELP
text and sanitizes metric names to the exposition-format identifier
charset (:func:`_prom_name`), so any registry name round-trips through
a scrape.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

#: default histogram bucket upper bounds (units are the caller's)
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
)


def nearest_rank_percentile(
    values: Sequence[float], q: float, name: Optional[str] = None
) -> float:
    """Nearest-rank percentile of a sample (q in [0, 100]).

    ``p(q)`` is the smallest observed value with at least ``q`` percent
    of the sample at or below it.  ``name`` labels the metric in the
    empty-sample error, so a caller asking for the p99 of a histogram
    that never observed anything gets one actionable message instead
    of a bare index error.
    """
    if not values:
        what = f"metric {name!r}" if name else "an empty sample"
        raise ValueError(
            f"cannot take p{q:g} of {what}: no observations recorded"
        )
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (>= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict:
        """The JSON-export block of this counter."""
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that goes up and down; tracks its observed maximum."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0
        self.max: float = 0

    def set(self, value: float) -> None:
        """Set the current value, tracking the observed maximum."""
        self.value = value
        if value > self.max:
            self.max = value

    def inc(self, amount: float = 1) -> None:
        """Move the gauge up by ``amount``."""
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        """Move the gauge down by ``amount``."""
        self.set(self.value - amount)

    def snapshot(self) -> dict:
        """The JSON-export block of this gauge."""
        return {"type": self.kind, "value": self.value, "max": self.max}


class Histogram:
    """Fixed buckets plus retained observations for exact percentiles.

    By default every observation is retained, so ``percentile`` is the
    exact nearest rank.  ``max_observations`` caps the retained sample
    with **algorithm-R reservoir sampling** seeded from the metric name
    — deterministic for a given observation sequence, so capped
    virtual-clock runs still export byte-identically.  Below the cap
    percentiles stay exact; above it they are reservoir estimates
    (flagged ``"sampled": true`` in the snapshot), while ``sum``,
    ``count``, bucket counts, ``min``, and ``max`` remain exact.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        max_observations: Optional[int] = None,
    ):
        """Create the histogram; buckets must strictly increase."""
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"histogram {name} needs strictly increasing buckets"
            )
        if max_observations is not None and max_observations < 1:
            raise ValueError(
                f"histogram {name}: max_observations must be >= 1, "
                f"got {max_observations}"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self.max_observations = max_observations
        self._values: List[float] = []
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng: Optional[random.Random] = None

    def observe(self, value: float) -> None:
        """Record one observation (exact counts, bounded raw sample)."""
        self.sum += value
        self.count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        cap = self.max_observations
        if cap is None or len(self._values) < cap:
            self._values.append(value)
        else:
            # algorithm R: item i survives with probability cap / i,
            # seeded by name so the reservoir is run-deterministic
            if self._rng is None:
                self._rng = random.Random(f"histogram:{self.name}")
            slot = self._rng.randrange(self.count)
            if slot < cap:
                self._values[slot] = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def sampled(self) -> bool:
        """Whether the raw sample is a reservoir (estimated percentiles)."""
        return (
            self.max_observations is not None
            and self.count > self.max_observations
        )

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained observations.

        Exact while every observation is retained; a reservoir
        estimate once ``max_observations`` is exceeded.  Raises a
        :class:`ValueError` naming this metric when nothing has been
        observed.
        """
        return nearest_rank_percentile(self._values, q, name=self.name)

    def snapshot(self) -> dict:
        """The JSON-export block: counts, bounds, and percentiles."""
        snap = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.buckets, self.bucket_counts)
            },
            "overflow": self.bucket_counts[-1],
        }
        if self.count:
            snap.update(
                min=self._min,
                max=self._max,
                p50=self.percentile(50),
                p95=self.percentile(95),
                p99=self.percentile(99),
            )
        if self.sampled:
            snap["sampled"] = True
        return snap


class MetricsRegistry:
    """Named instruments, created on first use, exported sorted."""

    def __init__(self):
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, kind, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{kind.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        max_observations: Optional[int] = None,
    ) -> Histogram:
        """The histogram called ``name``, created on first use.

        ``buckets`` and ``max_observations`` apply only at creation;
        later callers get the existing instrument unchanged.
        """
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(
                name,
                buckets=buckets,
                help=help,
                max_observations=max_observations,
            )
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}")
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def to_json(self) -> Dict[str, dict]:
        """Every instrument's snapshot, keyed by name, sorted."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_json` to ``path`` (sorted keys, stable)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n"
        )
        return path

    def prometheus_text(self) -> str:
        """The Prometheus exposition format, one block per metric."""
        lines: List[str] = []
        for name, metric in sorted(self._metrics.items()):
            prom = _prom_name(name)
            if metric.help:
                lines.append(
                    f"# HELP {prom} {_escape_help(metric.help)}"
                )
            lines.append(f"# TYPE {prom} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.buckets, metric.bucket_counts):
                    cumulative += count
                    lines.append(
                        f'{prom}_bucket{{le="{bound:g}"}} {cumulative}'
                    )
                lines.append(f'{prom}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{prom}_sum {metric.sum:g}")
                lines.append(f"{prom}_count {metric.count}")
            else:
                lines.append(f"{prom} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: Union[str, Path]) -> Path:
        """Write :meth:`prometheus_text` to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.prometheus_text())
        return path


def _escape_help(text: str) -> str:
    r"""Escape HELP text per the exposition format (``\``, LF, ``"``)."""
    return (
        text.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _prom_name(name: str) -> str:
    """Sanitize a registry name into a Prometheus identifier.

    Every character outside ``[a-zA-Z0-9_:]`` becomes ``_`` (dots and
    dashes included), and a leading digit gains a ``_`` prefix, so any
    registry name yields a scrape-legal metric name.
    """
    prom = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if prom and prom[0].isdigit():
        prom = "_" + prom
    return prom


def prom_path_for(metrics_path: Union[str, Path]) -> Path:
    """``out.metrics.json`` -> ``out.metrics.prom`` (text-format sibling)."""
    path = Path(metrics_path)
    if path.suffix == ".json":
        return path.with_suffix(".prom")
    return Path(str(path) + ".prom")
