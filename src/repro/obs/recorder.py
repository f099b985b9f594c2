"""Global recorder: the no-op fast path every hot loop calls into.

Instrumented code (trainers, PSO, pipelines) calls the module-level
helpers — :func:`span`, :func:`inc`, :func:`set_gauge`, :func:`observe` —
unconditionally.  When no recorder is installed (the default) each call
is a single global read plus an early return, so the library costs
effectively nothing when observability is off (<1% on any training
loop; see ``benchmarks/bench_obs_overhead.py``).  Installing a
:class:`Recorder` (via :func:`enable` or the :func:`recording` context
manager) routes the same calls to a live tracer + metrics registry.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .trace import Tracer, aggregate_spans, render_span_tree

__all__ = [
    "Recorder",
    "get_recorder",
    "set_recorder",
    "enable",
    "disable",
    "enabled",
    "recording",
    "span",
    "record_span",
    "event",
    "inc",
    "attach_counters",
    "set_gauge",
    "observe",
    "load_trace",
    "render_trace",
]


def _record_time_key(rec: dict) -> float:
    """Timeline position of any record kind, for interleaved export."""
    if rec.get("type") == "span":
        return rec.get("start_ms", 0.0)
    if rec.get("type") == "event":
        return rec.get("ts_ms", 0.0)
    ts = rec.get("updated_ms")
    return float("inf") if ts is None else ts


class Recorder:
    """A tracer and a metrics registry that export to one JSONL file."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        # Same epoch for both: metric updated_ms and span start_ms must
        # interleave on one timeline in export_jsonl.
        self.metrics = MetricsRegistry(epoch=self.tracer.epoch)
        self.created_unix = time.time()

    def records(self) -> list[dict]:
        return self.tracer.records() + self.metrics.records()

    def export_jsonl(self, path: str) -> None:
        """Write one self-contained JSONL artifact reconstructing the run.

        A leading ``meta`` record anchors the monotonic timeline to wall
        time; then spans, instant events, and metric records interleave
        in timeline order (spans by start, metrics by last update — an
        instrument never touched sorts last), so a reader replaying the
        file sees measurements in the order they happened.
        """
        records = sorted(self.records(), key=_record_time_key)
        meta = {
            "type": "meta",
            "created_unix": self.created_unix,
            "exported_unix": time.time(),
            "spans": len(self.tracer.spans),
            "events": len(self.tracer.events),
            "metrics": len(self.metrics),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, default=str) + "\n")
            for rec in records:
                fh.write(json.dumps(rec, default=str) + "\n")

    def render(self, max_depth: int | None = None) -> str:
        return render_trace(self.records(), max_depth=max_depth)


class _NullSpan:
    """Reusable do-nothing span for the disabled path.

    Stateless, so a single shared instance is safe under nesting and
    threading; ``set`` mirrors :meth:`repro.obs.trace.Span.set`.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()
_RECORDER: Recorder | None = None


def get_recorder() -> Recorder | None:
    """The installed recorder, or ``None`` when observability is off."""
    return _RECORDER


def set_recorder(recorder: Recorder | None) -> Recorder | None:
    """Install ``recorder`` globally; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def enable() -> Recorder:
    """Install (or return the already-installed) global recorder."""
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = Recorder()
    return _RECORDER


def disable() -> None:
    """Remove the global recorder; helpers revert to the no-op path."""
    set_recorder(None)


def enabled() -> bool:
    return _RECORDER is not None


@contextmanager
def recording(trace_path: str | None = None):
    """Run a block under a fresh recorder, restoring the previous one.

    ::

        with obs.recording("search.jsonl") as rec:
            flow.run(rng)
        # search.jsonl now holds the span tree + metrics
    """
    recorder = Recorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
        if trace_path is not None:
            recorder.export_jsonl(trace_path)


# --------------------------------------------------------------------- #
# hot-path helpers (no-ops while no recorder is installed)
# --------------------------------------------------------------------- #
def span(name: str, **attrs):
    """Open a timed region on the global recorder (no-op when disabled)."""
    recorder = _RECORDER
    if recorder is None:
        return _NULL_SPAN
    return recorder.tracer.span(name, **attrs)


def record_span(name: str, start_s: float, end_s: float, **attrs) -> None:
    """Record an externally-timed span (``time.perf_counter`` readings)
    on the global recorder; no-op when disabled."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.tracer.record_span(name, start_s, end_s, **attrs)


def event(name: str, **attrs) -> None:
    """Record an instant structured event on the global recorder."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.tracer.event(name, **attrs)


def inc(name: str, amount: float = 1.0) -> None:
    """Bump a counter on the global recorder."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.metrics.counter(name).inc(amount)


def attach_counters(prefix: str, counters) -> None:
    """Export a component's :class:`~repro.obs.metrics.CounterSet` as
    ``<prefix>/<name>`` through the installed recorder (no-op when
    disabled).  Components call this once, at construction."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.metrics.attach(prefix, counters)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the global recorder."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Add a histogram sample on the global recorder."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.metrics.histogram(name).observe(value)


# --------------------------------------------------------------------- #
# saved-trace helpers (the ``repro obs`` subcommand)
# --------------------------------------------------------------------- #
def load_trace(path: str) -> list[dict]:
    """Read a JSONL trace back into records (blank lines skipped)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def render_trace(records: list[dict], max_depth: int | None = None) -> str:
    """Human-readable report: span tree, per-name totals, events, metrics."""
    from ..utils.tables import format_table

    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    metrics = [r for r in records if r.get("type") in
               ("counter", "gauge", "histogram")]
    parts = ["== span tree ==",
             render_span_tree(spans, max_depth=max_depth)]
    agg = aggregate_spans(spans)
    if agg:
        parts.append("")
        parts.append(format_table(
            ["span", "count", "total ms", "mean ms"],
            [[a["name"], a["count"], f"{a['total_ms']:.2f}",
              f"{a['mean_ms']:.2f}"] for a in agg],
            title="== span totals ==",
        ))
    if events:
        parts.append("")
        rows = [[e["ts_ms"], e["name"],
                 _format_event_attrs(e.get("attrs", {}))]
                for e in sorted(events, key=lambda e: e.get("ts_ms", 0.0))]
        parts.append(format_table(["ts ms", "event", "attrs"], rows,
                                  title="== events =="))
    if metrics:
        parts.append("")
        parts.append(_render_metric_records(metrics))
    return "\n".join(parts)


def _format_event_attrs(attrs: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in attrs.items())


def _render_metric_records(records: list[dict]) -> str:
    from ..utils.tables import format_table

    rows = []
    for rec in sorted(records, key=lambda r: r["name"]):
        if rec["type"] == "histogram":
            if rec.get("count", 0) == 0:
                detail = "no samples"
            else:
                detail = (
                    f"mean={rec['mean']:.4g} p50={rec['p50']:.4g} "
                    f"p90={rec['p90']:.4g} max={rec['max']:.4g}"
                )
            rows.append([rec["name"], "histogram", rec.get("count", 0),
                         detail])
        elif rec["type"] == "counter":
            rows.append([rec["name"], "counter", "", f"{rec['value']:g}"])
        else:
            value = rec.get("value")
            detail = "unset" if value is None else f"{value:.6g}"
            rows.append([rec["name"], "gauge", rec.get("updates", ""),
                         detail])
    return format_table(["metric", "kind", "n", "value"], rows,
                        title="== metrics ==")
