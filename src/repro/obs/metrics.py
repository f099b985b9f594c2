"""Metrics registry: counters, gauges, and quantile histograms.

Instruments in this module are cheap append/assign operations so the
hot loops (training batches, PSO evaluations) can record freely; the
expensive work — sorting for quantiles, table rendering — happens only
when a summary is requested.

:class:`CounterSet` is the exception to "exists only while recording":
a serving component's always-on event counts, which its ``health()``
reads and which a registry exports once the set is attached.
"""

from __future__ import annotations

import json
import random
import threading
import time
import zlib

__all__ = ["Counter", "CounterSet", "Gauge", "Histogram", "MetricsRegistry"]

#: Fallback monotonic epoch for the ``updated_ms`` stamps below.
#: Standalone instruments measure from module import; instruments made
#: by a :class:`MetricsRegistry` inherit *its* epoch, which a
#: :class:`~repro.obs.Recorder` aligns with its tracer's epoch so metric
#: updates and spans interleave on one timeline.
_EPOCH = time.perf_counter()


class Counter:
    """Monotonic event count (e.g. ``pso/candidates_evaluated``)."""

    kind = "counter"

    def __init__(self, name: str, epoch: float | None = None) -> None:
        self.name = name
        self.value = 0.0
        self._epoch = _EPOCH if epoch is None else epoch
        self.updated_ms: float | None = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount
        self.updated_ms = (time.perf_counter() - self._epoch) * 1e3

    def record(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value,
                "updated_ms": self.updated_ms}


class CounterSet:
    """A component's always-on event counters behind one lock.

    Its ``health()`` reads :meth:`snapshot`; a registry it is attached
    to (:meth:`MetricsRegistry.attach`) exports each counter as
    ``<prefix>/<name>``.  Counters that move together must go through
    one :meth:`add_many` call, or a concurrent :meth:`snapshot` could
    see a *torn* state (say, an impossible mean batch size).  ``derive``
    maps the counts to extra snapshot-only values (a mean batch size).
    """

    def __init__(self, *names: str, derive=None) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(names, 0)
        self._derive = derive

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    def add_many(self, **amounts: int) -> None:
        """Bump several counters atomically (one lock acquisition)."""
        with self._lock:
            for name, amount in amounts.items():
                self._counts[name] += amount

    def counts(self) -> dict:
        """A consistent copy of the raw counters."""
        with self._lock:
            return dict(self._counts)

    def snapshot(self) -> dict:
        """A consistent point-in-time copy of every counter plus the
        derived values, stamped with the monotonic clock
        (``ts_monotonic``) so scrape consumers can order snapshots
        without trusting wall time."""
        with self._lock:
            snap = {"ts_monotonic": time.monotonic(), **self._counts}
        if self._derive is not None:
            snap.update(self._derive(snap))
        return snap


class Gauge:
    """Last-write-wins value (e.g. ``train/imgs_per_sec``)."""

    kind = "gauge"

    def __init__(self, name: str, epoch: float | None = None) -> None:
        self.name = name
        self.value: float | None = None
        self.updates = 0
        self._epoch = _EPOCH if epoch is None else epoch
        self.updated_ms: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1
        self.updated_ms = (time.perf_counter() - self._epoch) * 1e3

    def record(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "value": self.value,
            "updates": self.updates,
            "updated_ms": self.updated_ms,
        }


class Histogram:
    """Bounded-memory sample store with quantile summaries (e.g. ``loss``).

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    quantiles come from a fixed-size uniform reservoir (Vitter's
    algorithm R) so a long-running serve can observe forever without
    growing — before this bound, a week of ``serve/batch_size`` samples
    was an unbounded list.  Sampling is deterministic: the reservoir RNG
    is seeded from the metric name, so two runs recording the same
    sequence keep identical reservoirs.
    """

    kind = "histogram"

    #: Reservoir bound.  4096 uniform samples put the worst-case p99
    #: standard error under ~0.2 percentile points — indistinguishable
    #: from timing noise at a fraction of a MB even for float-heavy use.
    RESERVOIR_SIZE = 4096

    def __init__(self, name: str, reservoir_size: int | None = None,
                 epoch: float | None = None) -> None:
        self.name = name
        self.capacity = (self.RESERVOIR_SIZE if reservoir_size is None
                         else int(reservoir_size))
        if self.capacity < 1:
            raise ValueError("reservoir_size must be >= 1")
        self._reservoir: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._epoch = _EPOCH if epoch is None else epoch
        self.updated_ms: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.capacity:
                self._reservoir[j] = value
        self.updated_ms = (time.perf_counter() - self._epoch) * 1e3

    @property
    def values(self) -> list[float]:
        """The retained (possibly subsampled) observations."""
        return list(self._reservoir)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the reservoir (exact until
        ``count`` exceeds the reservoir bound, estimated after)."""
        if not self._reservoir:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        ordered = sorted(self._reservoir)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[int(idx)]

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0}
        ordered = sorted(self._reservoir)
        n = len(ordered)

        def q(p: float) -> float:
            return ordered[min(n - 1, max(0, round(p * (n - 1))))]

        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "min": self.min,
            "max": self.max,
            "p50": q(0.50),
            "p90": q(0.90),
            "p99": q(0.99),
        }

    def record(self) -> dict:
        return {"type": "histogram", "name": self.name,
                "updated_ms": self.updated_ms, **self.summary()}


class MetricsRegistry:
    """Get-or-create store of named instruments.

    Asking for an existing name with a different instrument kind is an
    error — silently returning the wrong type would corrupt both.
    """

    def __init__(self, epoch: float | None = None) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._attached: dict[str, list[CounterSet]] = {}
        self._lock = threading.Lock()
        #: ``updated_ms`` epoch for every instrument created here; a
        #: Recorder passes its tracer's epoch so metric updates and
        #: spans share one timeline.
        self.epoch = _EPOCH if epoch is None else epoch

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, epoch=self.epoch)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def attach(self, prefix: str, counters: CounterSet) -> None:
        """Export ``counters`` as ``<prefix>/<name>`` counter records,
        read live on every :meth:`records` call.  Sets attached under
        one prefix are summed, so two servers in one process export one
        ``serve/completed``."""
        with self._lock:
            self._attached.setdefault(prefix, []).append(counters)

    def records(self) -> list[dict]:
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
            attached = [(p, list(sets)) for p, sets in self._attached.items()]
        records = [m.record() for m in metrics]
        updated_ms = (time.perf_counter() - self.epoch) * 1e3
        for prefix, sets in attached:
            totals: dict[str, int] = {}
            for counters in sets:
                for name, value in counters.counts().items():
                    totals[name] = totals.get(name, 0) + value
            records.extend(
                {"type": "counter", "name": f"{prefix}/{name}",
                 "value": value, "updated_ms": updated_ms}
                for name, value in totals.items()
            )
        return sorted(records, key=lambda r: r["name"])

    def export_jsonl(self, fh) -> None:
        for rec in self.records():
            fh.write(json.dumps(rec, default=str) + "\n")

    def render(self) -> str:
        """Fixed-width summary table of every instrument."""
        from ..utils.tables import format_table

        rows = []
        for rec in self.records():
            if rec["type"] == "histogram":
                if rec["count"] == 0:
                    detail = "no samples"
                else:
                    detail = (
                        f"mean={rec['mean']:.4g} p50={rec['p50']:.4g} "
                        f"p90={rec['p90']:.4g} max={rec['max']:.4g}"
                    )
                rows.append([rec["name"], "histogram",
                             rec.get("count", 0), detail])
            elif rec["type"] == "counter":
                rows.append([rec["name"], "counter", "", f"{rec['value']:g}"])
            else:
                value = rec["value"]
                detail = "unset" if value is None else f"{value:.6g}"
                rows.append([rec["name"], "gauge", rec["updates"], detail])
        if not rows:
            return "(no metrics)"
        return format_table(["metric", "kind", "n", "value"], rows)
