"""The benchmark's own arithmetic: percentiles, failure ratios, arrival
schedules, and an in-memory span tracer with self-time attribution.

Nothing here imports the system under test, so the arithmetic can be
tested on its own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Percentiles the benchmark may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def supported_percentile(n: int, ladder=PERCENTILE_LADDER,
                         min_tail: int = MIN_TAIL_SAMPLES) -> float | None:
    """Highest percentile of ``ladder`` that leaves at least ``min_tail``
    of ``n`` samples strictly beyond it (``None`` when none does)."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 + 1e-9 >= min_tail:  # 100 - 99.9 < 0.1
            best = p
    return best


#: Samples per block for block medians: the smallest block that
#: supports p90 under the tail rule.
BLOCK = 100


def blocks(samples, block: int = BLOCK) -> list[np.ndarray]:
    """Consecutive blocks of ``block`` samples, in time order; the
    remainder joins the last block."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size // block
    if n < 1:
        raise ValueError(f"{samples.size} samples < one block of {block}")
    cuts = [i * block for i in range(1, n)]
    return np.split(samples, cuts)


def latency_summary(samples_ms, block: int = BLOCK) -> dict:
    """p50 and p90 as medians over consecutive blocks of the samples.

    Each block is large enough to support p90 under the tail rule; the
    median over blocks keeps a host stall that hits a few blocks from
    moving the figure.  Raises when no block can support p90."""
    if (supported_percentile(block) or 0.0) < 90.0:
        raise ValueError(f"a block of {block} samples cannot support p90 "
                         f"(need {MIN_TAIL_SAMPLES} beyond it)")
    parts = blocks(samples_ms, block)
    p50 = [float(np.percentile(b, 50)) for b in parts]
    p90 = [float(np.percentile(b, 90)) for b in parts]
    return {
        "p50": float(np.median(p50)),
        "p90": float(np.median(p90)),
        "samples": int(sum(b.size for b in parts)),
        "blocks": len(parts),
        "block_p50": p50,
        "block_p90": p90,
    }


def block_rate(durations_s, block: int = BLOCK) -> float:
    """Calls per second as the median over blocks of consecutive call
    durations of a closed loop."""
    return float(np.median([b.size / b.sum()
                            for b in blocks(durations_s, block)]))


def failed_ratio(attempted: int, **failures: int) -> float:
    """Frames not delivered OK over frames attempted.

    Every failure kind counts (shed, timeout, error, dropped, rejected,
    missing ...); a negative count or more failures than attempts is a
    bookkeeping bug and raises."""
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    if any(v < 0 for v in failures.values()):
        raise ValueError(f"negative failure count in {failures}")
    failed = sum(failures.values())
    if failed > attempted:
        raise ValueError(f"{failed} failures > {attempted} attempts")
    return failed / attempted


def poisson_schedule(seed: int, camera: int, rate_hz: float,
                     seconds: float) -> np.ndarray:
    """Arrival offsets (s) of one camera's Poisson frame schedule.

    Each camera draws from its own stream ``(seed, camera)``, so cameras
    are independent and their phases are not synchronized; the same
    seed always gives the same schedule."""
    if rate_hz <= 0 or seconds <= 0:
        raise ValueError("rate_hz and seconds must be positive")
    rng = np.random.default_rng([seed, camera])
    n = int(rate_hz * seconds * 1.5) + 16
    times = np.cumsum(rng.exponential(1.0 / rate_hz, size=n))
    while times[-1] < seconds:  # pragma: no cover - 1.5x covers it
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate_hz, size=n))
        times = np.concatenate([times, more])
    return times[times < seconds]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def host_fingerprint() -> dict:
    """What a reader needs to know to compare numbers across hosts."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "REPRO_INTRA_OP_THREADS": os.environ.get("REPRO_INTRA_OP_THREADS"),
    }


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed call: ``layer`` is the name up to its first dot."""

    name: str
    start: float
    end: float
    parent: int | None = None
    frame: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    Spans are appended to a list (index = span id) and written out only
    when the benchmark ends.  ``span`` nests through a per-thread stack;
    ``record`` adds a finished span with an explicit parent, for
    intervals measured across threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, frame: int | None = None) -> int:
        with self._lock:
            self.spans.append(Span(name, start, end, parent, frame))
            return len(self.spans) - 1

    def span(self, name: str, frame: int | None = None):
        return _SpanScope(self, name, frame)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "frame": s.frame}
            for i, s in enumerate(self.spans)
        ]


class _SpanScope:
    __slots__ = ("tracer", "name", "frame", "index")

    def __init__(self, tracer: Tracer, name: str, frame: int | None) -> None:
        self.tracer = tracer
        self.name = name
        self.frame = frame
        self.index = -1

    def __enter__(self) -> "_SpanScope":
        stack = self.tracer._stack()
        parent = stack[-1] if stack else None
        self.index = self.tracer.record(self.name, time.perf_counter(),
                                        float("nan"), parent, self.frame)
        stack.append(self.index)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer._stack().pop()
        self.tracer.spans[self.index].end = time.perf_counter()


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(children.get(i, []), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def attribute(spans: list[Span], wall_s: float,
              root_layer: str = "frame") -> dict:
    """Self time per layer plus an explicit ``unattributed`` row.

    Root spans of layer ``root_layer`` are the benchmark's own per-frame
    envelopes; their self time (and anything outside every span) is the
    ``unattributed`` remainder, so the rows always sum to ``wall_s``.
    A negative remainder means spans double-count time and raises."""
    rows: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.layer == root_layer:
            continue
        rows[s.layer] = rows.get(s.layer, 0.0) + own
    unattributed = wall_s - sum(rows.values())
    if unattributed < -1e-9 * max(1.0, wall_s):
        raise ValueError(
            f"layer self times {sum(rows.values()):.6f} s exceed the "
            f"wall time {wall_s:.6f} s"
        )
    rows["unattributed"] = unattributed
    return rows
