"""Streaming serving: per-stream sessions that degrade gracefully.

The deployment the paper aims at is not a batch of images but a *video
feed* that never stops: the DAC-SDC stream (and FastMOT's camera
pipelines, which ship tracks to downstream consumers over MQTT) must
keep the camera side moving no matter how slow the DNN or the
consumers get.  This module is that shape at serving scale — N
concurrent streams sharing one engine pool — with the robustness
contract made explicit and testable:

* **The producer never blocks.**  Each stream owns a
  :class:`FrameQueue` with *drop-oldest* backpressure: a full queue
  evicts its oldest frame (counted ``dropped_backpressure``) so
  ``put`` stays O(1) and lock-bounded.  A camera cannot be told to
  wait; it can only be told which frames to forget.
* **Every accepted frame is accounted.**  The invariant
  ``accepted == processed + dropped_by_policy`` holds exactly: frames
  evicted by backpressure, skipped by the brownout stride, rejected by
  the engine pool (shed/timeout/error), or drained at shutdown are all
  *dropped by policy*, never silently lost — including the frame a
  crashed worker held (the supervisor requeues it).
* **Overload browns out, then recovers.**  A hysteretic
  :class:`BrownoutController` climbs a degradation ladder under
  sustained queue pressure — shrink the dynamic batch
  (:meth:`InferenceServer.set_batch_cap`), force the engine's circuit
  breaker onto the eager fallback (quant/fp32 -> eager, the existing
  :class:`~repro.resilience.CircuitBreaker`), then raise the
  frame-drop stride — and steps back down rung by rung once pressure
  stays low, the breaker re-closing through its own half-open probe.
* **Stream workers are supervised.**  A per-manager watchdog restarts
  crashed producer/worker threads; the stream's sticky tracker state
  (:class:`TrackState`) lives on the :class:`Stream`, not the thread,
  so a restarted worker resumes the same track ids.
* **Events go somewhere pluggable.**  Each processed frame publishes a
  detection/track event through an :class:`EventSink` — a JSONL file
  (:class:`JsonlSink`) or an in-process callback bus
  (:class:`CallbackSink`) standing in for MQTT/socket.io.  A failing
  sink costs the event, never the frame accounting.

Fault sites ``stream.source`` / ``stream.queue`` / ``stream.worker`` /
``stream.sink`` (see :mod:`repro.resilience.faults`) make all of this
deterministically testable.  Observability: per-stream
``stream/<id>/depth`` and ``stream/<id>/drop_ratio`` gauges, the
``stream/e2e_ms`` latency histogram, the ``stream/brownout_level``
gauge, and counters for every drop class and restart.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from .. import obs
from ..resilience import faults
from .result import STATUS_OK, ServeResult

__all__ = [
    "BrownoutController",
    "CallbackSink",
    "EventSink",
    "FrameQueue",
    "JsonlSink",
    "NullSink",
    "Stream",
    "StreamManager",
    "StreamStats",
    "SyntheticSource",
    "TrackState",
]


# --------------------------------------------------------------------- #
# accounting
# --------------------------------------------------------------------- #
#: Counters that together exhaust the fates of an accepted frame.
DROP_FIELDS = (
    "dropped_backpressure",  # evicted oldest from a full queue
    "dropped_stride",        # skipped by the brownout frame stride
    "dropped_rejected",      # engine pool said shed/timeout/error
    "dropped_shutdown",      # still queued (or in hand) at stop()
)


class StreamStats:
    """Thread-safe frame accounting for one stream.

    The load-bearing invariant — checked by :meth:`accounted` and the
    perf gate — is that acceptance is *conserved*::

        accepted == processed + sum(dropped_*)

    Producer, worker, and supervisor all write through one lock, and
    multi-counter updates go through :meth:`add_many` so a concurrent
    snapshot can never observe a torn state where a frame is neither
    processed nor dropped.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.produced = 0
        self.accepted = 0
        self.processed = 0
        self.requeued = 0
        self.sink_events = 0
        self.sink_errors = 0
        self.worker_restarts = 0
        self.producer_restarts = 0
        #: Longest single ``FrameQueue.put`` call (producer-block bound).
        self.put_block_ns_max = 0
        for field in DROP_FIELDS:
            setattr(self, field, 0)

    def add(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def add_many(self, **fields: int) -> None:
        with self._lock:
            for field, amount in fields.items():
                setattr(self, field, getattr(self, field) + amount)

    def observe_put_block(self, ns: int) -> None:
        with self._lock:
            if ns > self.put_block_ns_max:
                self.put_block_ns_max = ns

    @property
    def dropped_by_policy(self) -> int:
        with self._lock:
            return sum(getattr(self, f) for f in DROP_FIELDS)

    def accounted(self) -> bool:
        """Does ``accepted == processed + dropped_by_policy`` hold?"""
        snap = self.snapshot()
        return snap["accepted"] == snap["processed"] + snap["dropped_by_policy"]

    def snapshot(self) -> dict:
        with self._lock:
            snap = {
                "produced": self.produced,
                "accepted": self.accepted,
                "processed": self.processed,
                "requeued": self.requeued,
                "sink_events": self.sink_events,
                "sink_errors": self.sink_errors,
                "worker_restarts": self.worker_restarts,
                "producer_restarts": self.producer_restarts,
                "put_block_ms_max": self.put_block_ns_max / 1e6,
            }
            snap.update({f: getattr(self, f) for f in DROP_FIELDS})
            snap["dropped_by_policy"] = sum(
                getattr(self, f) for f in DROP_FIELDS
            )
            return snap


class _Frame:
    """One frame in flight: sequence number, pixels, enqueue time."""

    __slots__ = ("seq", "image", "t_src")

    def __init__(self, seq: int, image: np.ndarray, t_src: float) -> None:
        self.seq = seq
        self.image = image
        self.t_src = t_src


class FrameQueue:
    """Bounded per-stream queue with drop-oldest backpressure.

    ``put`` **never blocks** on a full queue: it evicts the oldest
    frame (accounted ``dropped_backpressure``) and appends the new one
    under one lock acquisition — the producer's worst case is lock
    contention, not consumer speed.  This is deliberately *not* a
    ``queue.Queue``: the stdlib queue's ``put_nowait`` raises on full
    (shedding the *newest* frame), while a live video feed wants the
    newest frame most and the stale ones least.
    """

    def __init__(self, capacity: int, stats: StreamStats,
                 stream_id: str = "stream") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stream_id = stream_id
        self.stats = stats
        self._items: deque[_Frame] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def put(self, frame: _Frame) -> None:
        """Accept ``frame``, evicting the oldest if at capacity."""
        spec = faults.trigger("stream.queue")
        if spec is not None and spec.kind == "crash":
            raise faults.InjectedFault(
                f"injected queue fault ({self.stream_id})"
            )
        if spec is not None and spec.kind == "stall":
            time.sleep(spec.delay_s)
        t0 = time.perf_counter_ns()
        with self._not_empty:
            evicted = None
            if len(self._items) >= self.capacity:
                evicted = self._items.popleft()
            self._items.append(frame)
            if evicted is None:
                self.stats.add_many(produced=1, accepted=1)
            else:
                self.stats.add_many(produced=1, accepted=1,
                                    dropped_backpressure=1)
            self._not_empty.notify()
        self.stats.observe_put_block(time.perf_counter_ns() - t0)
        if evicted is not None:
            obs.inc("stream/dropped_backpressure")

    def requeue(self, frame: _Frame) -> None:
        """Put a crashed worker's in-hand frame back at the head.

        No eviction and no ``accepted`` bump — the frame was already
        accepted once; the queue may transiently hold ``capacity + 1``
        frames, which the next :meth:`put` corrects.
        """
        with self._not_empty:
            self._items.appendleft(frame)
            self.stats.add("requeued")
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> _Frame | None:
        """Pop the oldest frame, or ``None`` on timeout."""
        with self._not_empty:
            if not self._items and not self._not_empty.wait_for(
                lambda: bool(self._items), timeout=timeout
            ):
                return None
            return self._items.popleft()

    def drain(self) -> list[_Frame]:
        """Empty the queue (shutdown); caller accounts the frames."""
        with self._lock:
            items, self._items = list(self._items), deque()
            return items


# --------------------------------------------------------------------- #
# event sinks
# --------------------------------------------------------------------- #
class EventSink:
    """Where a stream publishes its detection/track events.

    Implementations must be thread-safe: a :class:`StreamManager`
    shares one sink across every stream worker unless given per-stream
    sinks.  ``publish`` may raise; the worker counts the failure
    (``sink_errors``) and moves on — a broken consumer never costs
    frame accounting.
    """

    def publish(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NullSink(EventSink):
    """Discard every event (load tests that only care about frames)."""

    def publish(self, event: dict) -> None:
        pass


class JsonlSink(EventSink):
    """Append events as JSON lines — the file stand-in for MQTT."""

    def __init__(self, path) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "a")

    def publish(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            if self._fh.closed:
                raise ValueError(f"JsonlSink({self.path}) is closed")
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()


class CallbackSink(EventSink):
    """In-process pub/sub bus — the callback stand-in for socket.io."""

    def __init__(self, *callbacks) -> None:
        self._lock = threading.Lock()
        self._callbacks = list(callbacks)

    def subscribe(self, callback) -> None:
        with self._lock:
            self._callbacks.append(callback)

    def publish(self, event: dict) -> None:
        with self._lock:
            callbacks = tuple(self._callbacks)
        for callback in callbacks:
            callback(event)


# --------------------------------------------------------------------- #
# frame sources
# --------------------------------------------------------------------- #
class SyntheticSource:
    """The synthetic camera: one object drifting across a rendered scene.

    Iterating yields ``frames`` images of shape ``(3, H, W)`` float32;
    the labeled object random-walks (bouncing off the frame edges) so a
    downstream tracker sees a coherent trajectory.  Deterministic per
    ``seed``; ``interval_ms`` paces the feed like a fixed-FPS camera.
    """

    def __init__(self, frames: int = 64, image_hw: tuple[int, int] = (32, 64),
                 seed: int = 0, interval_ms: float = 0.0,
                 clutter: int = 1) -> None:
        self.frames = frames
        self.image_hw = tuple(image_hw)
        self.seed = seed
        self.interval_ms = interval_ms
        self.clutter = clutter

    def __len__(self) -> int:
        return self.frames

    def __iter__(self):
        from ..datasets.renderer import SceneRenderer

        rng = np.random.default_rng(self.seed)
        renderer = SceneRenderer(self.image_hw, clutter=self.clutter)
        spec = renderer.sample_object(rng)
        vel = rng.uniform(0.005, 0.02, size=2) * rng.choice([-1.0, 1.0], 2)
        for _ in range(self.frames):
            if self.interval_ms:
                time.sleep(self.interval_ms / 1e3)
            cx, cy = spec.cx + vel[0], spec.cy + vel[1]
            # bounce the center off the frame edges
            for i, c in enumerate((cx, cy)):
                half = (spec.w if i == 0 else spec.h) / 2
                if c < half or c > 1 - half:
                    vel[i] = -vel[i]
            cx = float(np.clip(cx, spec.w / 2, 1 - spec.w / 2))
            cy = float(np.clip(cy, spec.h / 2, 1 - spec.h / 2))
            spec = dataclasses.replace(spec, cx=cx, cy=cy)
            image, _ = renderer.render(spec, rng)
            yield image


# --------------------------------------------------------------------- #
# sticky per-stream tracker state
# --------------------------------------------------------------------- #
class TrackState:
    """Session-affine single-object track state for one stream.

    Lives on the :class:`Stream` object — not the worker thread — so a
    supervisor restart re-attaches the same state and track ids stay
    stable across worker crashes.  Association is IoU-gated: a new
    detection within ``iou_threshold`` of the current (EMA-smoothed)
    box continues the track; anything else starts a fresh track id.
    """

    def __init__(self, iou_threshold: float = 0.3,
                 smooth: float = 0.6) -> None:
        self.iou_threshold = iou_threshold
        self.smooth = smooth
        self.track_id = 0
        self.box: np.ndarray | None = None
        self.age = 0        # frames since this track started
        self.updates = 0    # lifetime updates across all tracks

    def update(self, box: np.ndarray) -> tuple[str, np.ndarray]:
        """Fold one cxcywh detection in; returns (event kind, box)."""
        box = np.asarray(box, dtype=np.float64).reshape(-1)[:4]
        self.updates += 1
        if self.box is not None:
            iou = _scalar_iou(self.box.tolist(), box.tolist())
            if iou >= self.iou_threshold:
                self.box = self.smooth * self.box + (1 - self.smooth) * box
                self.age += 1
                return "track_update", self.box
        self.track_id += 1
        self.box = box.copy()
        self.age = 0
        return "track_new", self.box


def _max(a: float, b: float) -> float:
    """``np.maximum`` on two floats (NaN propagates)."""
    return a if a > b or a != a else b


def _min(a: float, b: float) -> float:
    """``np.minimum`` on two floats (NaN propagates)."""
    return a if a < b or a != a else b


def _scalar_iou(a, b) -> float:
    """IoU of two cxcywh boxes given as float sequences.

    The same float64 operations, in the same order, as
    ``box_iou(cxcywh_to_xyxy(a), cxcywh_to_xyxy(b))`` — so the same
    result bit for bit — without building six small arrays per frame.
    """
    ax1, ay1 = a[0] - a[2] / 2, a[1] - a[3] / 2
    ax2, ay2 = a[0] + a[2] / 2, a[1] + a[3] / 2
    bx1, by1 = b[0] - b[2] / 2, b[1] - b[3] / 2
    bx2, by2 = b[0] + b[2] / 2, b[1] + b[3] / 2
    x1, y1 = _max(ax1, bx1), _max(ay1, by1)
    x2, y2 = _min(ax2, bx2), _min(ay2, by2)
    inter = _max(x2 - x1, 0.0) * _max(y2 - y1, 0.0)
    union = (_max(ax2 - ax1, 0.0) * _max(ay2 - ay1, 0.0)
             + _max(bx2 - bx1, 0.0) * _max(by2 - by1, 0.0) - inter)
    return inter / _max(union, 1e-12) if union > 0 else 0.0


# --------------------------------------------------------------------- #
# overload brownout
# --------------------------------------------------------------------- #
class BrownoutController:
    """Hysteretic overload ladder shared by every stream of a manager.

    Pressure (queue fullness, in [0, 1]) is sampled once per
    supervisor tick.  ``escalate_ticks`` consecutive samples at or
    above ``high`` climb one rung; ``recover_ticks`` consecutive
    samples at or below ``low`` descend one — the dead band between
    the thresholds holds the current rung, so the ladder cannot
    oscillate on a noisy boundary.  Rungs and their per-rung cost:

    ====  ==============================  =============================
    rung  action                          cost
    ====  ==============================  =============================
    0     none                            —
    1     halve the dynamic batch         throughput (smaller batches),
          (:meth:`InferenceServer.\\      lower per-batch latency and
          set_batch_cap`)                 arena footprint
    2     + trip the circuit breaker      accuracy/speed of the engine
          onto the eager fallback         (quant/fp32 -> eager), kept
          (re-tripped every tick)         open only while at rung >= 2
    3     + frame-drop stride             input coverage: only every
          (process every Nth frame)       ``stride``-th frame runs
    ====  ==============================  =============================

    Recovery is rung by rung with the same hysteresis; below rung 2
    the breaker stops being re-tripped and re-closes through its own
    half-open probe once the cooldown elapses.
    """

    MAX_LEVEL = 3

    def __init__(self, high: float = 0.75, low: float = 0.25,
                 escalate_ticks: int = 3, recover_ticks: int = 5,
                 stride: int = 2, server=None, name: str = "stream") -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1")
        if escalate_ticks < 1 or recover_ticks < 1:
            raise ValueError("escalate/recover ticks must be >= 1")
        if stride < 2:
            raise ValueError("stride must be >= 2")
        self.high = high
        self.low = low
        self.escalate_ticks = escalate_ticks
        self.recover_ticks = recover_ticks
        self.brownout_stride = stride
        self.name = name
        self.level = 0
        self.max_level_seen = 0
        self._server = server
        self._hot = 0
        self._cool = 0
        self._lock = threading.Lock()

    @property
    def stride(self) -> int:
        """Frame stride workers honour right now (1 = every frame)."""
        return self.brownout_stride if self.level >= 3 else 1

    def observe(self, pressure: float) -> int:
        """Fold one pressure sample in; returns the (new) rung."""
        with self._lock:
            if pressure >= self.high:
                self._hot += 1
                self._cool = 0
                if (self._hot >= self.escalate_ticks
                        and self.level < self.MAX_LEVEL):
                    self._hot = 0
                    self._set_level(self.level + 1, pressure)
            elif pressure <= self.low:
                self._cool += 1
                self._hot = 0
                if self._cool >= self.recover_ticks and self.level > 0:
                    self._cool = 0
                    self._set_level(self.level - 1, pressure)
            else:  # dead band: hold the rung, reset both streaks
                self._hot = 0
                self._cool = 0
            # Rung 2 is a *held* state, not an edge: the breaker
            # half-opens after its cooldown, so keep re-tripping it
            # every tick while browned out past rung 1.
            if self.level >= 2:
                self._trip_breaker()
            level = self.level
        obs.set_gauge("stream/brownout_level", level)
        return level

    def _set_level(self, level: int, pressure: float) -> None:
        previous, self.level = self.level, level
        self.max_level_seen = max(self.max_level_seen, level)
        if level > previous:
            obs.inc("stream/brownout_escalate")
        else:
            obs.inc("stream/brownout_recover")
        obs.event("stream/brownout", manager=self.name, level=level,
                  previous=previous, pressure=round(pressure, 3))
        server = self._server
        if server is not None:
            cap = (max(1, server.config.max_batch_size // 2)
                   if level >= 1 else None)
            server.set_batch_cap(cap)

    def _trip_breaker(self) -> None:
        server = self._server
        if server is not None and server.breaker is not None:
            server.breaker.trip(reason="brownout")


# --------------------------------------------------------------------- #
# streams + manager
# --------------------------------------------------------------------- #
class Stream:
    """One stream's durable identity: source, queue, tracker, sink.

    Threads (producer + worker) come and go — the supervisor restarts
    crashed ones — but this object and the state that must survive a
    crash (tracker, stats, the frame iterator's position, the in-hand
    frame slot) persist for the stream's whole life.
    """

    def __init__(self, stream_id: str, source, sink: EventSink,
                 queue_depth: int, iou_threshold: float,
                 smooth: float) -> None:
        self.stream_id = stream_id
        self.source = source
        self.sink = sink
        self.stats = StreamStats()
        self.queue = FrameQueue(queue_depth, self.stats, stream_id)
        self.tracker = TrackState(iou_threshold, smooth)
        self.source_done = threading.Event()
        self.seq = 0
        #: The frame the worker is currently holding; only the worker
        #: writes it while alive, and the supervisor reads it only
        #: after the thread died — so no lock is needed.
        self.inhand: _Frame | None = None
        self._frames = iter(source)
        self.producer: threading.Thread | None = None
        self.worker: threading.Thread | None = None

    def snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap["stream"] = self.stream_id
        snap["queue_depth"] = len(self.queue)
        snap["source_done"] = self.source_done.is_set()
        snap["track_id"] = self.tracker.track_id
        return snap


class StreamManager:
    """N supervised streams sharing one engine pool.

    Parameters
    ----------
    engine:
        Where frames go for inference: a
        :class:`~repro.runtime.Session` (its dynamic-batching server is
        shared by all streams — the "millions of users" shape), an
        :class:`~repro.serve.InferenceServer`, or a plain callable
        ``(1, C, H, W) -> output`` for tests (run inline, wrapped in OK
        results).
    sources:
        One iterable of frames per stream (e.g. :class:`SyntheticSource`).
    sink:
        A shared :class:`EventSink`, or a list with one sink per
        stream; defaults to :class:`NullSink`.
    config:
        A :class:`~repro.runtime.StreamConfig`; defaults apply.
    ids:
        Stream names; default ``s0 .. s{N-1}``.

    Lifecycle: :meth:`start` spawns per-stream producer/worker threads
    plus one supervisor (watchdog + brownout ticks); :meth:`join`
    waits for the sources to drain; :meth:`stop` tears down and
    accounts every frame still in flight as ``dropped_shutdown``.
    """

    def __init__(self, engine, sources, sink=None, config=None,
                 ids=None, name: str = "stream") -> None:
        from ..runtime.config import StreamConfig

        self.config = config if config is not None else StreamConfig()
        self.name = name
        self._submit, self._server = self._resolve_engine(engine)
        sources = list(sources)
        if ids is None:
            ids = [f"s{i}" for i in range(len(sources))]
        if len(ids) != len(sources):
            raise ValueError("need exactly one id per source")
        sinks = self._resolve_sinks(sink, len(sources))
        self.streams = [
            Stream(sid, src, snk, self.config.queue_depth,
                   self.config.track_iou, self.config.track_smooth)
            for sid, src, snk in zip(ids, sources, sinks)
        ]
        self.controller = BrownoutController(
            high=self.config.pressure_high,
            low=self.config.pressure_low,
            escalate_ticks=self.config.escalate_ticks,
            recover_ticks=self.config.recover_ticks,
            stride=self.config.brownout_stride,
            server=self._server if self.config.brownout else None,
            name=name,
        ) if self.config.brownout else None
        self._stopping = threading.Event()
        self._started = False
        self._supervisor: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # engine / sink resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_engine(engine):
        """Normalize ``engine`` to (submit_fn, server-or-None)."""
        from ..runtime.session import Session
        from .server import InferenceServer

        if isinstance(engine, Session):
            return engine.submit, engine.ensure_server()
        if isinstance(engine, InferenceServer):
            return engine.submit, engine
        if callable(engine):
            def submit(image, deadline_ms=None):
                future: Future = Future()
                try:
                    out = engine(image)
                except Exception as exc:
                    future.set_result(ServeResult(
                        "error", error=f"{type(exc).__name__}: {exc}"))
                else:
                    value = out[0] if (hasattr(out, "ndim")
                                       and out.ndim == 4) else out
                    future.set_result(ServeResult(STATUS_OK, value=value))
                return future

            return submit, None
        raise TypeError(
            "engine must be a Session, an InferenceServer, or a callable, "
            f"got {type(engine).__name__}"
        )

    @staticmethod
    def _resolve_sinks(sink, n: int) -> list[EventSink]:
        if sink is None:
            shared = NullSink()
            return [shared] * n
        if isinstance(sink, EventSink):
            return [sink] * n
        sinks = list(sink)
        if len(sinks) != n:
            raise ValueError("need exactly one sink per stream")
        return sinks

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "StreamManager":
        if self._started:
            return self
        self._started = True
        for stream in self.streams:
            stream.producer = self._spawn_producer(stream)
            stream.worker = self._spawn_worker(stream)
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True,
            name=f"stream-{self.name}-supervisor",
        )
        self._supervisor.start()
        return self

    def join(self, timeout: float = 60.0) -> bool:
        """Wait until every source is exhausted and every accepted
        frame is accounted; returns False on timeout."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if all(
                s.source_done.is_set() and len(s.queue) == 0
                and s.inhand is None and s.stats.accounted()
                for s in self.streams
            ):
                return True
            time.sleep(0.005)
        return False

    def stop(self) -> None:
        """Stop all threads; account leftovers as ``dropped_shutdown``."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join()
        for stream in self.streams:
            for thread in (stream.producer, stream.worker):
                if thread is not None:
                    thread.join()
        for stream in self.streams:
            leftovers = stream.queue.drain()
            if stream.inhand is not None:
                leftovers.append(stream.inhand)
                stream.inhand = None
            if leftovers:
                stream.stats.add("dropped_shutdown", len(leftovers))
                obs.inc("stream/dropped_shutdown", len(leftovers))
            stream.sink.close()

    def __enter__(self) -> "StreamManager":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # health / accounting
    # ------------------------------------------------------------------ #
    def accounting(self) -> dict:
        """Aggregate frame conservation across every stream."""
        totals = {"produced": 0, "accepted": 0, "processed": 0,
                  "dropped_by_policy": 0}
        exact = True
        for stream in self.streams:
            snap = stream.stats.snapshot()
            for key in totals:
                totals[key] += snap[key]
            exact = exact and (
                snap["accepted"]
                == snap["processed"] + snap["dropped_by_policy"]
            )
        totals["exact"] = exact
        totals["drop_ratio"] = (
            totals["dropped_by_policy"] / totals["accepted"]
            if totals["accepted"] else 0.0
        )
        return totals

    def health(self) -> dict:
        """Liveness + accounting + brownout snapshot for the CLI."""
        streams = [s.snapshot() for s in self.streams]
        alive = sum(
            1 for s in self.streams
            if s.worker is not None and s.worker.is_alive()
        )
        accounting = self.accounting()
        if self._stopping.is_set():
            status = "stopped"
        elif not accounting["exact"]:
            status = "inconsistent"
        elif alive < len(self.streams) or (
            self.controller is not None and self.controller.level > 0
        ):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "streams": streams,
            "workers_alive": alive,
            "brownout_level": (0 if self.controller is None
                               else self.controller.level),
            "accounting": accounting,
        }

    # ------------------------------------------------------------------ #
    # threads
    # ------------------------------------------------------------------ #
    def _spawn_producer(self, stream: Stream) -> threading.Thread:
        thread = threading.Thread(
            target=self._producer_loop, args=(stream,), daemon=True,
            name=f"stream-{stream.stream_id}-producer",
        )
        thread.start()
        return thread

    def _spawn_worker(self, stream: Stream) -> threading.Thread:
        thread = threading.Thread(
            target=self._worker_loop, args=(stream,), daemon=True,
            name=f"stream-{stream.stream_id}-worker",
        )
        thread.start()
        return thread

    def _producer_loop(self, stream: Stream) -> None:
        """The camera side: pull frames, never wait for anyone."""
        while not self._stopping.is_set():
            spec = faults.trigger("stream.source")
            if spec is not None and spec.kind == "crash":
                raise faults.InjectedFault(
                    f"injected source crash ({stream.stream_id})"
                )
            if spec is not None and spec.kind == "stall":
                time.sleep(spec.delay_s)
            try:
                image = next(stream._frames)
            except StopIteration:
                stream.source_done.set()
                return
            image = np.asarray(image, dtype=np.float32)
            if image.ndim == 3:
                image = image[None]
            stream.seq += 1
            stream.queue.put(_Frame(stream.seq, image, time.perf_counter()))

    def _worker_loop(self, stream: Stream) -> None:
        """The consumer side: queue -> engine -> tracker -> sink."""
        timeout = self.config.result_timeout_s
        while not self._stopping.is_set():
            frame = stream.queue.get(timeout=0.02)
            if frame is None:
                continue
            stream.inhand = frame
            spec = faults.trigger("stream.worker")
            if spec is not None and spec.kind == "crash":
                # Die holding the frame: the supervisor requeues it and
                # restarts us — accounting must still balance.
                raise faults.WorkerCrash(
                    f"injected stream-worker crash ({stream.stream_id})"
                )
            if spec is not None and spec.kind == "stall":
                time.sleep(spec.delay_s)
            stride = (1 if self.controller is None
                      else self.controller.stride)
            if stride > 1 and frame.seq % stride:
                stream.stats.add("dropped_stride")
                obs.inc("stream/dropped_stride")
                stream.inhand = None
                continue
            try:
                result = self._submit(
                    frame.image, deadline_ms=self.config.deadline_ms
                ).result(timeout=timeout)
            except Exception:
                # The engine pool broke its own "always resolve"
                # contract (or timed out); the frame is still accounted.
                stream.stats.add("dropped_rejected")
                obs.inc("stream/dropped_rejected")
                stream.inhand = None
                continue
            if result.ok:
                self._deliver(stream, frame, result)
                stream.stats.add("processed")
                obs.inc("stream/processed")
            else:
                stream.stats.add("dropped_rejected")
                obs.inc("stream/dropped_rejected")
            stream.inhand = None

    def _deliver(self, stream: Stream, frame: _Frame, result) -> None:
        """Update the sticky tracker and publish the event."""
        e2e_ms = (time.perf_counter() - frame.t_src) * 1e3
        obs.observe("stream/e2e_ms", e2e_ms)
        value = np.asarray(result.value)
        event = {
            "stream": stream.stream_id,
            "seq": frame.seq,
            "kind": "detection",
            "e2e_ms": round(e2e_ms, 3),
            "brownout_level": (0 if self.controller is None
                               else self.controller.level),
        }
        if value.reshape(-1).size >= 4:
            kind, box = stream.tracker.update(value.reshape(-1)[:4])
            event.update(kind=kind, track_id=stream.tracker.track_id,
                         track_age=stream.tracker.age,
                         box=[round(float(v), 5) for v in box])
        try:
            spec = faults.trigger("stream.sink")
            if spec is not None and spec.kind == "crash":
                raise faults.InjectedFault(
                    f"injected sink crash ({stream.stream_id})"
                )
            if spec is not None and spec.kind == "stall":
                time.sleep(spec.delay_s)
            stream.sink.publish(event)
        except Exception:
            # A broken consumer costs the event, never the frame.
            stream.stats.add("sink_errors")
            obs.inc("stream/sink_errors")
        else:
            stream.stats.add("sink_events")
            obs.inc("stream/sink_events")

    # ------------------------------------------------------------------ #
    # supervisor: watchdog + brownout ticks + gauges
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        interval = self.config.supervisor_interval_ms / 1e3
        while not self._stopping.wait(interval):
            if self.config.restart_workers:
                self._restart_dead()
            if self.controller is not None:
                self.controller.observe(self._pressure())
            self._publish_gauges()

    def _restart_dead(self) -> None:
        for stream in self.streams:
            worker = stream.worker
            if worker is not None and not worker.is_alive():
                # Requeue the frame the corpse held *before* the new
                # worker starts, so it is processed-or-dropped, never
                # lost.
                frame, stream.inhand = stream.inhand, None
                if frame is not None:
                    stream.queue.requeue(frame)
                stream.stats.add("worker_restarts")
                obs.inc("stream/worker_restarts")
                obs.event("stream/worker_restart",
                          stream=stream.stream_id,
                          requeued=int(frame is not None),
                          track_id=stream.tracker.track_id)
                stream.worker = self._spawn_worker(stream)
            producer = stream.producer
            if (producer is not None and not producer.is_alive()
                    and not stream.source_done.is_set()):
                stream.stats.add("producer_restarts")
                obs.inc("stream/producer_restarts")
                obs.event("stream/producer_restart",
                          stream=stream.stream_id)
                stream.producer = self._spawn_producer(stream)

    def _pressure(self) -> float:
        """Queue fullness in [0, 1]: the max of the mean per-stream
        fullness and the shared server's queue fullness."""
        if not self.streams:
            return 0.0
        fullness = [len(s.queue) / s.queue.capacity for s in self.streams]
        pressure = sum(fullness) / len(fullness)
        server = self._server
        if server is not None:
            pressure = max(
                pressure,
                server._queue.qsize() / server.config.queue_depth,
            )
        return min(1.0, pressure)

    def _publish_gauges(self) -> None:
        if not obs.enabled():
            return
        for stream in self.streams:
            snap = stream.stats.snapshot()
            obs.set_gauge(f"stream/{stream.stream_id}/depth",
                          len(stream.queue))
            accepted = snap["accepted"]
            obs.set_gauge(
                f"stream/{stream.stream_id}/drop_ratio",
                snap["dropped_by_policy"] / accepted if accepted else 0.0,
            )
